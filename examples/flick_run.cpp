/**
 * @file
 * flick_run — command-line driver for multi-ISA programs.
 *
 * Assembles and links .s files from disk into one multi-ISA executable,
 * loads it on the simulated platform, and calls a function:
 *
 *     flick_run [options] prog.hx64.s kernels.rv64.s
 *
 * File suffixes pick the ISA: *.hx64.s / *.host.s are host code,
 * *.rv64.s / *.nxp.s are NxP code (the paper's annotation step).
 *
 * Options:
 *     --call=SYM        function to run (default: main)
 *     --args=A,B,...    up to six integer arguments (0x hex ok)
 *     --trace           stream a disassembled instruction trace
 *     --journal         print the call's protocol milestones (the tracer)
 *     --stats           dump all component statistics at exit
 *     --extra-us=N      inflate each migration round trip by N us
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "flick/system.hh"

using namespace flick;

namespace
{

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open '%s'", path.c_str());
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string call_symbol = "main";
    std::vector<std::uint64_t> args;
    bool trace = false, print_journal = false, stats = false;
    Tick extra = 0;
    std::vector<std::string> files;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--call=", 0) == 0) {
            call_symbol = arg.substr(7);
        } else if (arg.rfind("--args=", 0) == 0) {
            std::stringstream ss(arg.substr(7));
            std::string tok;
            while (std::getline(ss, tok, ','))
                args.push_back(std::stoull(tok, nullptr, 0));
        } else if (arg == "--trace") {
            trace = true;
        } else if (arg == "--journal") {
            print_journal = true;
        } else if (arg == "--stats") {
            stats = true;
        } else if (arg.rfind("--extra-us=", 0) == 0) {
            extra = us(std::stoull(arg.substr(11)));
        } else if (arg.rfind("--", 0) == 0) {
            fatal("unknown option '%s'", arg.c_str());
        } else {
            files.push_back(arg);
        }
    }
    if (files.empty())
        fatal("usage: flick_run [options] <file.hx64.s> <file.rv64.s>...");

    FlickSystem sys;
    Program prog;
    for (const std::string &f : files) {
        std::string source = readFile(f);
        if (endsWith(f, ".rv64.s") || endsWith(f, ".nxp.s")) {
            prog.addNxpAsm(source);
        } else if (endsWith(f, ".hx64.s") || endsWith(f, ".host.s")) {
            prog.addHostAsm(source);
        } else {
            fatal("'%s': name files *.hx64.s/*.host.s or "
                  "*.rv64.s/*.nxp.s to pick the ISA",
                  f.c_str());
        }
    }

    Process &proc = sys.load(prog);
    if (extra)
        sys.setExtraRoundTripLatency(extra);
    if (trace)
        sys.enableInstructionTrace(&std::cerr);
    if (print_journal)
        sys.debug().trace().enable();

    Tick t0 = sys.now();
    std::uint64_t result = sys.submit(proc, CallSpec(call_symbol).withArgs(args)).wait();
    Tick elapsed = sys.now() - t0;

    if (print_journal) {
        std::printf("-- protocol journal --\n");
        for (const TraceEvent &e : sys.debug().trace().events())
            std::printf("%12.2fus  %-14s  dev=%u  pid=%d  arg=%#llx\n",
                        ticksToUs(e.tick - t0), tracePointName(e.point),
                        unsigned(e.device), e.pid,
                        (unsigned long long)e.arg);
    }
    if (stats) {
        std::printf("-- statistics --\n");
        sys.dumpStats(std::cout);
    }

    std::printf("%s(", call_symbol.c_str());
    for (std::size_t i = 0; i < args.size(); ++i)
        std::printf("%s%llu", i ? ", " : "",
                    (unsigned long long)args[i]);
    std::printf(") = %llu  [%.2f us simulated, %llu migrations]\n",
                (unsigned long long)result, ticksToUs(elapsed),
                (unsigned long long)proc.task->migrations);
    return 0;
}
