/**
 * @file
 * psm-replay: verify, inspect and self-test binary serve captures.
 *
 *   psm-replay <capture>             re-run the capture and diff every
 *                                    recorded outcome/digest (exit 1
 *                                    on divergence)
 *   psm-replay --dump <capture>      print the record tape
 *   psm-replay --self-test [dir]     capture a scripted run, replay it
 *                                    at thread widths 1 and 4, and
 *                                    byte-compare a re-capture
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "serve/replay.hh"
#include "util/thread_pool.hh"

namespace
{

using namespace psm;
using namespace psm::serve;

[[noreturn]] void
usage()
{
    std::fprintf(stderr, "usage: psm-replay [--dump] <capture>\n"
                         "       psm-replay --self-test [dir]\n");
    std::exit(2);
}

int
verify(const std::string &path)
{
    Capture cap;
    std::string error;
    if (!readCapture(path, cap, error)) {
        std::fprintf(stderr, "psm-replay: %s: %s\n", path.c_str(),
                     error.c_str());
        return 1;
    }
    ReplayResult res = replayCapture(cap);
    std::printf("%s: %zu events, %zu commits\n", path.c_str(),
                res.events, res.commits);
    if (!res.ok) {
        std::printf("REPLAY DIVERGED: %s\n",
                    res.firstMismatch.c_str());
        return 1;
    }
    std::printf("replay bit-identical (final hash=%016llx, "
                "surfaceEpochSum=%llu)\n",
                static_cast<unsigned long long>(res.finalDigest.hash),
                static_cast<unsigned long long>(
                    res.finalSurfaceEpochSum));
    return 0;
}

int
dump(const std::string &path)
{
    Capture cap;
    std::string error;
    if (!readCapture(path, cap, error)) {
        std::fprintf(stderr, "psm-replay: %s: %s\n", path.c_str(),
                     error.c_str());
        return 1;
    }
    std::printf("config: nodes=%d cap=%.1fW esd=%d seedBase=%llu "
                "policy=%d\n",
                cap.config.nodes, cap.config.serverCap,
                cap.config.esd ? 1 : 0,
                static_cast<unsigned long long>(cap.config.seedBase),
                static_cast<int>(cap.config.manager.policy));
    std::size_t ix = 0;
    for (const Capture::Step &step : cap.steps) {
        ++ix;
        if (step.isCommit) {
            std::printf(
                "%6zu commit  hash=%016llx passes=%llu simNow=%llu "
                "apps=%u epochSum=%llu\n",
                ix,
                static_cast<unsigned long long>(
                    step.commit.digest.hash),
                static_cast<unsigned long long>(
                    step.commit.digest.passes),
                static_cast<unsigned long long>(
                    step.commit.digest.simNow),
                step.commit.digest.activeApps,
                static_cast<unsigned long long>(
                    step.commit.surfaceEpochSum));
        } else {
            const EventRequest &r = step.event.request;
            std::printf(
                "%6zu event   %-12s node=%d app=%d workload=%u "
                "value=%.3f -> %s/node=%d/app=%d\n",
                ix, eventOpName(r.op).c_str(), r.node, r.appId,
                r.workload, r.value,
                replyStatusName(step.event.outcome.status).c_str(),
                step.event.outcome.node, step.event.outcome.appId);
        }
    }
    return 0;
}

bool
readAll(const std::string &path, std::vector<char> &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in.is_open())
        return false;
    out.assign(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
    return true;
}

int
selfTest(const std::string &dir)
{
    const std::string capture_path = dir + "/psm-replay-selftest.bin";
    const std::string recapture_path =
        dir + "/psm-replay-selftest-2.bin";

    EngineConfig cfg;
    cfg.nodes = 2;
    cfg.serverCap = 80.0;
    cfg.seedBase = 11;

    {
        ServeEngine engine(cfg);
        if (!engine.startCapture(capture_path)) {
            std::fprintf(stderr, "self-test: cannot capture to %s\n",
                         capture_path.c_str());
            return 1;
        }
        scriptedRun(engine);
        engine.stopCapture();
    }

    Capture cap;
    std::string error;
    if (!readCapture(capture_path, cap, error)) {
        std::fprintf(stderr, "self-test: readCapture: %s\n",
                     error.c_str());
        return 1;
    }

    // Replay must be bit-identical at any thread-pool width.
    for (unsigned width : {1u, 4u}) {
        util::ThreadPool::configureGlobal(width);
        ReplayResult res = replayCapture(cap);
        if (!res.ok) {
            std::fprintf(stderr,
                         "self-test: diverged at width %u: %s\n",
                         width, res.firstMismatch.c_str());
            return 1;
        }
        std::printf("width %u: %zu events, %zu commits, "
                    "hash=%016llx OK\n",
                    width, res.events, res.commits,
                    static_cast<unsigned long long>(
                        res.finalDigest.hash));
    }

    // A captured replay of the capture must produce the same bytes.
    {
        ServeEngine engine(cap.config);
        if (!engine.startCapture(recapture_path)) {
            std::fprintf(stderr, "self-test: cannot recapture\n");
            return 1;
        }
        for (const Capture::Step &step : cap.steps) {
            if (step.isCommit)
                engine.commit();
            else
                engine.apply(step.event.request);
        }
        engine.stopCapture();
    }
    std::vector<char> a, b;
    if (!readAll(capture_path, a) || !readAll(recapture_path, b)) {
        std::fprintf(stderr, "self-test: cannot re-read captures\n");
        return 1;
    }
    std::remove(capture_path.c_str());
    std::remove(recapture_path.c_str());
    if (a != b) {
        std::fprintf(stderr,
                     "self-test: re-capture bytes differ "
                     "(%zu vs %zu)\n",
                     a.size(), b.size());
        return 1;
    }
    std::printf("re-capture byte-identical (%zu bytes)\n", a.size());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool do_dump = false;
    bool do_self_test = false;
    std::string path;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--dump")
            do_dump = true;
        else if (arg == "--self-test")
            do_self_test = true;
        else if (!arg.empty() && arg[0] == '-')
            usage();
        else if (path.empty())
            path = arg;
        else
            usage();
    }
    if (do_self_test)
        return selfTest(path.empty() ? "." : path);
    if (path.empty())
        usage();
    return do_dump ? dump(path) : verify(path);
}
