# NxP half: square(x) = x * x, run on device 0.
square:
    mul a0, a0, a0
    ret
