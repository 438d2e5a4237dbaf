# Host half of the flick_run smoke test: main() = square(7).
main:
    mov rdi, 7
    call square
    ret
