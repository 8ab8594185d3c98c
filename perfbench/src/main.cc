/**
 * @file
 * cnvm_perfbench: run one workload of the end-to-end benchmark and
 * print its report as one JSON line.
 *
 *   cnvm_perfbench --workload <kv_write|kv_read|tx_direct|restart>
 *                  --seed <n> --seconds <s> [--trace 0|1]
 *                  [--trace-out <spans.tsv>]
 *
 * The configuration is pinned here, not read from the environment:
 * every CNVM_* variable is cleared and the ones the program consults
 * are set to the benchmark's values before anything runs.
 *
 * Exit status: 0 when every output checked out, 1 when a check
 * failed, 2 on bad usage.
 */
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "common.h"

extern char** environ;

namespace {

void
pinEnvironment()
{
    std::vector<std::string> names;
    for (char** e = environ; *e != nullptr; e++) {
        if (std::strncmp(*e, "CNVM_", 5) == 0) {
            const char* eq = std::strchr(*e, '=');
            names.emplace_back(*e, eq != nullptr ? size_t(eq - *e)
                                                 : std::strlen(*e));
        }
    }
    for (const auto& n : names)
        unsetenv(n.c_str());
    setenv("CNVM_LOG_WRITER", pb::kLogWriter, 1);
    setenv("CNVM_BATCH", std::to_string(pb::kBatch).c_str(), 1);
    setenv("CNVM_RECOVERY", "full", 1);
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: cnvm_perfbench --workload "
                 "<kv_write|kv_read|tx_direct|restart> --seed <n> "
                 "--seconds <s> [--trace 0|1] [--trace-out <path>]\n");
    return 2;
}

}  // namespace

int
main(int argc, char** argv)
{
    pb::Options o;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload")
            o.workload = v;
        else if (k == "--seed")
            o.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            o.seconds = std::strtod(v.c_str(), nullptr);
        else if (k == "--trace")
            o.trace = v == "1";
        else if (k == "--trace-out")
            o.traceOut = v;
        else
            return usage();
    }
    if (argc % 2 != 1 || o.seconds <= 0)
        return usage();

    pinEnvironment();
    std::signal(SIGPIPE, SIG_IGN);

    pb::Report r;
    try {
        if (o.workload == "kv_write" || o.workload == "kv_read")
            pb::runKv(o, r);
        else if (o.workload == "tx_direct")
            pb::runTxDirect(o, r);
        else if (o.workload == "restart")
            pb::runRestart(o, r);
        else
            return usage();
    } catch (const std::exception& e) {
        r.fail(std::string("aborted: ") + e.what());
    }
    std::printf("%s\n", r.json(o.workload).c_str());
    std::fflush(stdout);
    return r.failed() == 0 ? 0 : 1;
}
