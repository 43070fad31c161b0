/**
 * @file
 * psm-served: the power-struggle mediator as a long-running daemon.
 *
 * Hosts a managed (simulated) cluster behind the serving protocol:
 * clients connect over TCP, submit E1-E4 events and clock advances,
 * and read telemetry, while the daemon batches concurrent submissions
 * into single allocator epochs.  Runs until SIGINT/SIGTERM or a
 * client's SHUTDOWN frame.
 *
 *   psm-served [--port N] [--nodes N] [--cap W] [--policy NAME]
 *              [--esd] [--queue N] [--batch N] [--seed N]
 *              [--capture FILE]
 */

#include <csignal>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <thread>

#include "core/policy.hh"
#include "core/policy_registry.hh"
#include "serve/service.hh"
#include "util/logging.hh"
#include "util/parse.hh"

namespace
{

using namespace psm;

volatile std::sig_atomic_t interrupted = 0;

void
onSignal(int)
{
    interrupted = 1;
}

bool
parsePolicy(const std::string &name, core::PolicyKind &out)
{
    const core::PolicyInfo *info =
        core::PolicyRegistry::instance().findName(name);
    if (!info)
        return false;
    out = info->kind;
    return true;
}

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage: psm-served [--port N] [--nodes N] [--cap W]\n"
        "                  [--policy %s]\n"
        "                  [--esd] [--queue N] [--batch N] "
        "[--seed N]\n"
        "                  [--capture FILE]\n",
        core::PolicyRegistry::instance().cliNames().c_str());
    std::exit(2);
}

/** Reject the flag's value with a diagnostic, then die with usage. */
[[noreturn]] void
badValue(const std::string &flag, const char *value)
{
    std::fprintf(stderr, "psm-served: invalid value '%s' for %s\n",
                 value, flag.c_str());
    usage();
}

/** Checked strtol for a flag: whole-string, in-range, or die. */
long
parseCount(const std::string &flag, const char *value, long lo,
           long hi)
{
    long out = 0;
    if (!util::parseLongInRange(value, lo, hi, out))
        badValue(flag, value);
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace psm;

    std::uint16_t port = 7633;
    serve::ServiceConfig cfg;
    std::string capture_path;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (arg == "--port") {
            const char *value = next();
            if (!util::parsePort(value, port))
                badValue(arg, value);
        } else if (arg == "--nodes") {
            cfg.engine.nodes = static_cast<int>(
                parseCount(arg, next(), 1, serve::maxNodes));
        } else if (arg == "--cap") {
            const char *value = next();
            if (!util::parseFiniteDouble(value,
                                         cfg.engine.serverCap) ||
                !serve::validCap(cfg.engine.serverCap))
                badValue(arg, value);
        } else if (arg == "--policy") {
            const char *value = next();
            if (!parsePolicy(value, cfg.engine.manager.policy))
                badValue(arg, value);
        } else if (arg == "--esd")
            cfg.engine.esd = true;
        else if (arg == "--queue")
            cfg.maxQueue = static_cast<std::size_t>(parseCount(
                arg, next(), 1, std::numeric_limits<long>::max()));
        else if (arg == "--batch")
            cfg.maxBatch = static_cast<std::size_t>(parseCount(
                arg, next(), 1, std::numeric_limits<long>::max()));
        else if (arg == "--seed") {
            const char *value = next();
            long seed = 0;
            if (!util::parseLong(value, seed) || seed < 0)
                badValue(arg, value);
            cfg.engine.seedBase = static_cast<std::uint64_t>(seed);
        } else if (arg == "--capture")
            capture_path = next();
        else
            usage();
    }
    if (cfg.engine.esd)
        cfg.engine.manager.policy = core::PolicyKind::AppResEsdAware;

    serve::ServeService service(cfg);
    // Capture must begin before the first event: psm-replay rebuilds
    // a fresh engine from the recorded config.
    if (!capture_path.empty() &&
        !service.engine().startCapture(capture_path))
        fatal("cannot open capture file %s", capture_path.c_str());
    if (!service.listenTcp(port))
        fatal("cannot listen on port %u",
              static_cast<unsigned>(port));

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    service.start();
    inform(LogLevel::Normal,
           "psm-served: listening on port %u (%d node%s, policy %s)",
           static_cast<unsigned>(port), cfg.engine.nodes,
           cfg.engine.nodes == 1 ? "" : "s",
           core::policyName(cfg.engine.manager.policy).c_str());

    while (!interrupted && !service.shutdownRequested())
        std::this_thread::sleep_for(std::chrono::milliseconds(50));

    inform(LogLevel::Normal, "psm-served: shutting down (%s)",
           interrupted ? "signal" : "client request");
    service.stop();
    return 0;
}
