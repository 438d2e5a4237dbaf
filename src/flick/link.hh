/**
 * @file
 * Descriptor links (Section IV-C1).
 *
 * Concurrent migrations need more than one in-flight descriptor per
 * direction, so the single kernel-buffer and inbox slots of the serial
 * design become fixed-size rings of 128-byte slots with head/tail
 * indices. A ring pairs two slot arrays that mirror each other across
 * the PCIe link: the sender's staging area (where the descriptor is
 * packaged) and the receiver's mailbox (where the DMA burst lands).
 * Because the DMA engine completes transfers FIFO, the same head/tail
 * indices describe both sides: slot i of the staging array always
 * travels to slot i of the mailbox.
 *
 * Returns and NxP->host calls use the same descriptor + DMA + interrupt
 * mechanism as host->NxP calls, in reverse, so one type serves both
 * directions: a DescriptorLink owns its ring, the descriptors deferred
 * behind a full ring, its sequence numbers and retry count, and the
 * DRAM its slots live in. The descriptor bytes travel through the
 * simulated DMA engines; only the DMA call and its completion signal
 * differ by direction, and those stay with the engine.
 */

#ifndef FLICK_FLICK_LINK_HH
#define FLICK_FLICK_LINK_HH

#include <deque>

#include "flick/descriptor.hh"
#include "mem/sparse_memory.hh"
#include "sim/logging.hh"

namespace flick
{

/**
 * One direction of descriptor traffic between the host and one NxP
 * device.
 */
class DescriptorLink
{
  public:
    /** Slot stride: one wire descriptor, padded to its wire size. */
    static constexpr std::uint64_t slotBytes =
        MigrationDescriptor::wireBytes;

    /** Where one slot array lives. */
    struct Slots
    {
        SparseMemory *store = nullptr; //!< DRAM holding the slot bytes.
        Addr pa = 0;     //!< Base as the DMA engine addresses it.
        Addr offset = 0; //!< Base as an offset into @c store.
    };

    DescriptorLink() = default;

    /**
     * @param staging The sender-side slot array.
     * @param mailbox The receiver-side slot array.
     * @param slots Number of slots (in-flight descriptor bound).
     */
    DescriptorLink(Slots staging, Slots mailbox, unsigned slots)
        : _staging(staging), _mailbox(mailbox), _slots(slots)
    {
        if (slots == 0)
            panic("descriptor ring with zero slots");
    }

    unsigned slots() const { return _slots; }
    unsigned inUse() const { return _count; }
    /** Descriptors in flight or deferred behind a full ring. */
    std::size_t depth() const { return _count + _deferred.size(); }

    /** Oldest in-flight slot (what the receiver consumes next). */
    unsigned
    front() const
    {
        if (_count == 0)
            panic("descriptor ring underflow");
        return _head;
    }

    /**
     * Stage @p d in the tail slot: stamp the link's next sequence
     * number into it and write its wire bytes into the staging store.
     * Ship order is ring order, so the receiver expects exactly this
     * sequence. A full ring defers @p d instead and returns false.
     */
    bool
    stage(MigrationDescriptor &d, unsigned &slot)
    {
        if (_count == _slots) {
            _deferred.push_back(d);
            return false;
        }
        d.seq = ++_sendSeq;
        slot = _tail;
        _tail = (_tail + 1) % _slots;
        ++_count;
        auto w = d.toWire();
        _staging.store->write(_staging.offset + slot * slotBytes, w.data(),
                              w.size());
        return true;
    }

    /** The wire bytes that landed in the head mailbox slot. */
    MigrationDescriptor::Wire
    landed() const
    {
        MigrationDescriptor::Wire w{};
        _mailbox.store->read(_mailbox.offset + front() * slotBytes,
                             w.data(), w.size());
        return w;
    }

    /** Sequence number of the last descriptor the receiver accepted. */
    std::uint64_t acceptedSeq() const { return _acceptSeq; }

    /**
     * The receiver accepted the head descriptor @p seq: free its slot
     * and end the NAK streak. Returns true, with @p next, when a
     * deferred descriptor was waiting for the freed slot.
     */
    bool
    accept(std::uint64_t seq, MigrationDescriptor &next)
    {
        if (_count == 0)
            panic("descriptor ring underflow");
        _acceptSeq = seq;
        _retries = 0;
        _head = (_head + 1) % _slots;
        --_count;
        if (_deferred.empty())
            return false;
        next = _deferred.front();
        _deferred.pop_front();
        return true;
    }

    /** The receiver NAKed the head; returns the consecutive NAKs. */
    unsigned nak() { return ++_retries; }

    /**
     * Drop every in-flight slot and deferred descriptor (device
     * quarantine: nothing staged will ever be consumed, retransmitted
     * or completed). The link is empty afterwards.
     */
    void
    drain()
    {
        _head = _tail;
        _count = 0;
        _deferred.clear();
    }

    /** Sender-side (staging) physical address of slot @p i. */
    Addr stagingPa(unsigned i) const { return _staging.pa + i * slotBytes; }

    /** Receiver-side (mailbox) physical address of slot @p i. */
    Addr mailboxPa(unsigned i) const { return _mailbox.pa + i * slotBytes; }

  private:
    Slots _staging;
    Slots _mailbox;
    unsigned _slots = 1;
    unsigned _head = 0;
    unsigned _tail = 0;
    unsigned _count = 0;
    //! Descriptors waiting for a free slot (ring backpressure).
    std::deque<MigrationDescriptor> _deferred;
    std::uint64_t _sendSeq = 0;   //!< Last sequence number staged.
    std::uint64_t _acceptSeq = 0; //!< Last sequence number accepted.
    unsigned _retries = 0;        //!< Consecutive NAKs of the head.
};

} // namespace flick

#endif // FLICK_FLICK_LINK_HH
