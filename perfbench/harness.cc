#include "harness.hh"

#include <chrono>
#include <ctime>
#include <fstream>
#include <sstream>

#include <sys/resource.h>

namespace perfbench
{

double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

namespace
{

bool
startsWith(const std::string &s, const char *prefix)
{
    return s.rfind(prefix, 0) == 0;
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/** "nxp", "nxp2", ... "nxp8": an NxP device's stat-group prefix. */
bool
isNxpGroup(const std::string &group)
{
    if (!startsWith(group, "nxp"))
        return false;
    for (std::size_t i = 3; i < group.size(); ++i)
        if (group[i] < '0' || group[i] > '9')
            return false;
    return true;
}

/** Route class of a mem.<route>_reads / _writes counter. */
void
countRoute(Counts &c, const std::string &route, std::uint64_t v)
{
    c["mem.routed_accesses"] += v;
    if (startsWith(route, "host_to_host_dram"))
        c["mem.host_dram_accesses"] += v;
    else if (startsWith(route, "host_to_nxp") ||
             startsWith(route, "nxp_to_host") ||
             route.find("_peer_to_") != std::string::npos)
        c["mem.pcie_accesses"] += v;
    else if (isNxpGroup(route.substr(0, route.find("_to_"))) &&
             endsWith(route, "_dram"))
        c["mem.nxp_local_accesses"] += v;
}

/**
 * Whether @p key's counter is bumped by one StatGroup::inc() per event
 * (as opposed to set() in bulk, or inc() by a byte/tick/instruction
 * amount). Their sum estimates the StatGroup::inc calls a phase made.
 */
bool
incrementedPerEvent(const std::string &group, const std::string &name)
{
    if (endsWith(name, "_ticks") || endsWith(name, "bytes") ||
        endsWith(name, "_max") || name == "instructions" ||
        startsWith(name, "decode_cache") || startsWith(name, "itlb.") ||
        startsWith(name, "dtlb.") || startsWith(name, "icache."))
        return false;
    return group == "mem" || group == "kernel" || group == "irq" ||
           group == "flick" || startsWith(group, "dma") ||
           endsWith(group, "_platform") ||
           (isNxpGroup(group) && startsWith(name, "walker."));
}

} // namespace

Counts
snapshot(flick::FlickSystem &sys)
{
    std::ostringstream text;
    sys.dumpStats(text);
    std::istringstream in(text.str());

    Counts c;
    // Every reported counter exists even when a workload never bumps it.
    for (const char *k :
         {"sim.events", "sim.stat_increments", "isa.host.instructions",
          "isa.nxp.instructions", "isa.host.decode_hits",
          "isa.host.decode_fills", "isa.host.decode_fallbacks",
          "isa.nxp.decode_hits", "isa.nxp.decode_fills",
          "isa.nxp.decode_fallbacks", "vm.host_tlb_hits",
          "vm.host_tlb_misses", "vm.nxp_tlb_hits", "vm.nxp_tlb_misses",
          "vm.walks", "mem.routed_accesses", "mem.pcie_accesses",
          "mem.host_dram_accesses", "mem.nxp_local_accesses",
          "mem.dma.transfers", "mem.dma.bytes", "mem.irq.raised",
          "flick.host_to_nxp_calls", "flick.nxp_to_host_calls",
          "flick.crossings", "flick.retries",
          "flick.doorbells", "flick.batch_coalesced",
          "flick.qos.submitted", "flick.qos.admitted", "flick.qos.shed",
          "policy.rebalanced", "os.nx_faults"})
        c[k] = 0;

    std::string key;
    std::uint64_t v = 0;
    while (in >> key >> v) {
        std::size_t dot = key.find('.');
        if (dot == std::string::npos)
            continue;
        std::string group = key.substr(0, dot);
        std::string name = key.substr(dot + 1);
        if (incrementedPerEvent(group, name))
            c["sim.stat_increments"] += v;

        if (group == "mem") {
            if (endsWith(name, "_reads"))
                countRoute(c, name.substr(0, name.size() - 6), v);
            else if (endsWith(name, "_writes"))
                countRoute(c, name.substr(0, name.size() - 7), v);
        } else if (group == "host" || isNxpGroup(group)) {
            std::string isa = group == "host" ? "host" : "nxp";
            if (name == "instructions")
                c["isa." + isa + ".instructions"] += v;
            else if (name == "decode_cache_hits")
                c["isa." + isa + ".decode_hits"] += v;
            else if (name == "decode_cache_fills")
                c["isa." + isa + ".decode_fills"] += v;
            else if (name == "decode_cache_fallbacks")
                c["isa." + isa + ".decode_fallbacks"] += v;
            else if (name == "itlb.hits" || name == "dtlb.hits")
                c["vm." + isa + "_tlb_hits"] += v;
            else if (name == "itlb.misses" || name == "dtlb.misses")
                c["vm." + isa + "_tlb_misses"] += v;
            else if (name == "walker.walks")
                c["vm.walks"] += v;
        } else if (startsWith(group, "dma")) {
            if (name == "transfers")
                c["mem.dma.transfers"] += v;
            else if (name == "bytes")
                c["mem.dma.bytes"] += v;
        } else if (group == "irq" && name == "raised") {
            c["mem.irq.raised"] += v;
        } else if (group == "kernel" && name == "nx_faults") {
            c["os.nx_faults"] += v;
        } else if (group == "flick") {
            if (name == "host_to_nxp_calls")
                c["flick.host_to_nxp_calls"] += v;
            else if (name == "nxp_to_host_calls")
                c["flick.nxp_to_host_calls"] += v;
            else if (name == "retries")
                c["flick.retries"] += v;
            else if (name == "doorbell_writes")
                c["flick.doorbells"] += v;
            else if (name == "batch.coalesced")
                c["flick.batch_coalesced"] += v;
            else if (name == "qos.submitted")
                c["flick.qos.submitted"] += v;
            else if (name == "qos.admitted")
                c["flick.qos.admitted"] += v;
            else if (name == "qos.shed")
                c["flick.qos.shed"] += v;
            else if (name == "placement.rebalanced")
                c["policy.rebalanced"] += v;
        }
    }
    // dumpStats() leaves out the host MMU's walker; read it directly.
    c["vm.walks"] +=
        sys.debug().hostCore().mmu().walker().stats().get("walks");
    c["sim.events"] = sys.debug().events().eventsRun();
    c["sim.ticks"] = sys.now();
    c["flick.crossings"] =
        c["flick.host_to_nxp_calls"] + c["flick.nxp_to_host_calls"];
    return c;
}

Counts
minus(const Counts &after, const Counts &before)
{
    Counts d;
    for (const auto &kv : after) {
        auto it = before.find(kv.first);
        d[kv.first] = kv.second - (it == before.end() ? 0 : it->second);
    }
    return d;
}

Spans::Spans() : _t0(std::chrono::steady_clock::now()) {}

double
Spans::sinceStart() const
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         _t0)
        .count();
}

Spans::Scope::Scope(Spans &spans, const char *name, std::uint64_t call_id)
    : _spans(spans), _index(~std::size_t(0)), _savedParent(spans._current)
{
    if (!spans._on)
        return;
    std::uint64_t id = ++spans._lastId;
    _index = spans._records.size();
    spans._records.push_back(
        {name, id, spans._current, call_id, spans.sinceStart(), 0});
    spans._current = id;
}

Spans::Scope::~Scope()
{
    if (_index == ~std::size_t(0))
        return;
    _spans._records[_index].end = _spans.sinceStart();
    _spans._current = _savedParent;
}

bool
Spans::writeJson(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    // Same layout as Tracer::dumpJson: complete ("X") events with
    // microsecond timestamps, one process/thread for the benchmark.
    os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"
       << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
          "\"args\":{\"name\":\"perfbench\"}}";
    char buf[320];
    for (const Record &r : _records) {
        std::snprintf(buf, sizeof buf,
                      ",\n{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                      "\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{"
                      "\"id\":%llu,\"parent\":%llu,\"callId\":%llu}}",
                      r.name, r.start * 1e6, (r.end - r.start) * 1e6,
                      (unsigned long long)r.id,
                      (unsigned long long)r.parent,
                      (unsigned long long)r.callId);
        os << buf;
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
}

void
jsonString(std::ostream &os, const std::string &s)
{
    os << '"';
    for (char ch : s) {
        if (ch == '"' || ch == '\\')
            os << '\\' << ch;
        else if (static_cast<unsigned char>(ch) < 0x20)
            os << ' ';
        else
            os << ch;
    }
    os << '"';
}

void
jsonCounts(std::ostream &os, const std::map<std::string, std::uint64_t> &m)
{
    os << '{';
    bool first = true;
    for (const auto &kv : m) {
        if (!first)
            os << ',';
        first = false;
        jsonString(os, kv.first);
        os << ':' << kv.second;
    }
    os << '}';
}

} // namespace perfbench
