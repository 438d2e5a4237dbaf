#include "spec/speculation.hh"

#include "sim/logging.hh"

namespace flick
{

// --- WriteBuffer ---------------------------------------------------------

void
WriteBuffer::store(unsigned store, Addr offset, const void *buf,
                   std::uint64_t len)
{
    const auto *p = static_cast<const std::uint8_t *>(buf);
    for (std::uint64_t i = 0; i < len; ++i)
        _bytes[key(store, offset + i)] = p[i];
}

void
WriteBuffer::overlay(unsigned store, Addr offset, void *buf,
                     std::uint64_t len) const
{
    if (_bytes.empty())
        return;
    auto *p = static_cast<std::uint8_t *>(buf);
    std::uint64_t first = key(store, offset);
    auto it = _bytes.lower_bound(first);
    for (; it != _bytes.end() && it->first < first + len; ++it)
        p[it->first - first] = it->second;
}

// --- RWSet ---------------------------------------------------------------

namespace
{

/** Page keys covering [@p offset, +len) of @p store. */
template <typename Fn>
void
forEachPage(unsigned store, Addr offset, std::uint64_t len, Fn &&fn)
{
    std::uint64_t first = offset >> 12;
    std::uint64_t last = len ? (offset + len - 1) >> 12 : first;
    for (std::uint64_t page = first; page <= last; ++page)
        fn((std::uint64_t(store) << 52) | page);
}

} // namespace

void
RWSet::addRead(unsigned store, Addr offset, std::uint64_t len)
{
    forEachPage(store, offset, len,
                [this](std::uint64_t k) { _reads.insert(k); });
}

void
RWSet::addWrite(unsigned store, Addr offset, std::uint64_t len)
{
    forEachPage(store, offset, len,
                [this](std::uint64_t k) { _writes.insert(k); });
}

bool
RWSet::intersects(unsigned store, Addr offset, std::uint64_t len) const
{
    bool hit = false;
    forEachPage(store, offset, len, [this, &hit](std::uint64_t k) {
        hit = hit || _reads.count(k) || _writes.count(k);
    });
    return hit;
}

bool
RWSet::intersectsWrites(unsigned store, Addr offset,
                        std::uint64_t len) const
{
    bool hit = false;
    forEachPage(store, offset, len, [this, &hit](std::uint64_t k) {
        hit = hit || _writes.count(k);
    });
    return hit;
}

void
RWSet::clear()
{
    _reads.clear();
    _writes.clear();
}

// --- SpeculationManager --------------------------------------------------

SpeculationManager::SpeculationManager(MemSystem &mem, const SpecConfig &cfg)
    : _mem(mem), _cfg(cfg)
{
    _mem.setSpecHook(this);
}

SpeculationManager::~SpeculationManager()
{
    _mem.setSpecHook(nullptr);
}

void
SpeculationManager::arm(int pid, std::uint64_t call_id, VAddr twin_va)
{
    if (_active)
        panic("speculation armed while one is already in flight");
    _ctx = SpecContext{};
    _ctx.pid = pid;
    _ctx.callId = call_id;
    _ctx.twinVa = twin_va;
}

std::uint64_t
SpeculationManager::begin(unsigned device, Tick now)
{
    if (_active || !_ctx.twinVa)
        panic("speculation launched without an armed race");
    _ctx.device = device;
    _ctx.launchTick = now;
    _active = true;
    _slice = false;
    _deviceWindow = false;
    return ++_seq;
}

void
SpeculationManager::beginDeviceWindow(unsigned device)
{
    if (device != _ctx.device)
        panic("device-execution window for NxP %u but the speculation "
              "races NxP %u", device, _ctx.device);
    _deviceWindow = true;
}

void
SpeculationManager::markDoomed(const char *why)
{
    if (!_active || _ctx.doomed)
        return;
    _ctx.doomed = true;
    _ctx.doomReason = why;
}

std::uint64_t
SpeculationManager::commit()
{
    if (!_active)
        panic("commit with no active speculation");
    if (_ctx.doomed)
        panic("commit of a doomed speculation (%s)", _ctx.doomReason);
    std::uint64_t replayed = 0;
    _ctx.buffer.forEachRun([this, &replayed](unsigned store, Addr offset,
                                             const std::uint8_t *data,
                                             std::uint64_t len) {
        // Replay lands in the backing stores directly: routing and
        // latency for these bytes were already charged when the host
        // twin issued them speculatively. The stores' write listeners
        // fire as usual, so stale decoded text cannot survive a commit.
        if (store == 0)
            _mem.hostDram().write(offset, data, len);
        else
            _mem.nxpDram(store - 1).write(offset, data, len);
        replayed += len;
    });
    _ctx = SpecContext{};
    _active = false;
    _slice = false;
    _deviceWindow = false;
    return replayed;
}

void
SpeculationManager::squash()
{
    if (!_active)
        panic("squash with no active speculation");
    _ctx = SpecContext{};
    _active = false;
    _slice = false;
    _deviceWindow = false;
}

void
SpeculationManager::conflict()
{
    if (_ctx.conflicted)
        return;
    _ctx.conflicted = true;
    if (_onConflict)
        _onConflict();
}

bool
SpeculationManager::filterWrite(Requester r, unsigned store, Addr offset,
                                const void *buf, std::uint64_t len)
{
    if (!_active)
        return false;
    if (_slice && r == Requester::hostCore) {
        // The speculative twin's own store: buffer it, never let it
        // reach guest-visible memory. Past the cap the speculation can
        // no longer commit, but buffering continues so the rest of the
        // slice still observes its own stores coherently.
        _ctx.rwset.addWrite(store, offset, len);
        _ctx.buffer.store(store, offset, buf, len);
        if (_ctx.buffer.bytes() > _cfg.maxBufferedBytes)
            markDoomed("write-buffer overflow");
        return true;
    }
    if (exempt(r))
        return false;
    // A committed write by anyone else into a page the speculation read
    // or wrote: the speculative run may have consumed stale data (read
    // set) or would clobber newer data at replay (write set). Either
    // way the only safe answer is to abort the speculation.
    if (!_ctx.conflicted && _ctx.rwset.intersects(store, offset, len))
        conflict();
    return false;
}

void
SpeculationManager::observeRead(Requester r, unsigned store, Addr offset,
                                void *buf, std::uint64_t len)
{
    if (!_active)
        return;
    if (_slice && r == Requester::hostCore) {
        _ctx.rwset.addRead(store, offset, len);
        _ctx.buffer.overlay(store, offset, buf, len);
        return;
    }
    if (exempt(r))
        return;
    // Someone else read a page the speculation has pending stores for:
    // they observed pre-speculation bytes that a commit would rewrite.
    if (!_ctx.conflicted && _ctx.rwset.intersectsWrites(store, offset, len))
        conflict();
}

} // namespace flick
