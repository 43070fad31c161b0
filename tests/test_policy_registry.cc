/**
 * @file
 * Tests for the PolicyRegistry: the name/capability/planner table
 * behind the policy arena, and the guard that every registered
 * policy survives the round trip through CLI parsing and the capture
 * Config wire encoding.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/policy.hh"
#include "core/policy_registry.hh"
#include "net/frame.hh"
#include "serve/replay.hh"

namespace psm::core
{
namespace
{

TEST(PolicyRegistry, ContainsPaperPoliciesAndRivals)
{
    const auto &reg = PolicyRegistry::instance();
    ASSERT_GE(reg.all().size(), 7u);

    struct Expect
    {
        PolicyKind kind;
        const char *cli;
        bool hasPlanner;
    };
    const std::vector<Expect> expected = {
        {PolicyKind::UtilUnaware, "util-unaware", false},
        {PolicyKind::ServerResAware, "server-res-aware", false},
        {PolicyKind::AppAware, "app-aware", false},
        {PolicyKind::AppResAware, "app-res-aware", false},
        {PolicyKind::AppResEsdAware, "app-res-esd-aware", false},
        {PolicyKind::FastCapFair, "fastcap", true},
        {PolicyKind::CuttleSysSearch, "cuttlesys", true},
    };
    for (const Expect &e : expected) {
        const PolicyInfo *info = reg.find(e.kind);
        ASSERT_NE(info, nullptr) << e.cli;
        EXPECT_EQ(info->cliName, e.cli);
        EXPECT_EQ(static_cast<bool>(info->makePlanner), e.hasPlanner)
            << e.cli;
        if (info->makePlanner) {
            EXPECT_NE(info->makePlanner(), nullptr) << e.cli;
        }
    }
}

TEST(PolicyRegistry, CapsMatchLegacyWrappers)
{
    for (const PolicyInfo &info :
         PolicyRegistry::instance().all()) {
        EXPECT_EQ(policyName(info.kind), info.name);
        EXPECT_EQ(policyAppAware(info.kind), info.caps.appAware);
        EXPECT_EQ(policyResAware(info.kind), info.caps.resAware);
        EXPECT_EQ(policyUsesEsd(info.kind), info.caps.usesEsd);
        EXPECT_EQ(policyRaplEnforced(info.kind),
                  info.caps.raplEnforced);
    }
}

TEST(PolicyRegistry, CliNamesRoundTripAndListEveryPolicy)
{
    const auto &reg = PolicyRegistry::instance();
    std::string names = reg.cliNames();
    for (const PolicyInfo &info : reg.all()) {
        // The spelling psm-served's --policy parser accepts must
        // resolve back to the same kind...
        const PolicyInfo *found = reg.findName(info.cliName);
        ASSERT_NE(found, nullptr) << info.cliName;
        EXPECT_EQ(found->kind, info.kind);
        // ...and appear in the usage string.
        EXPECT_NE(names.find(info.cliName), std::string::npos)
            << info.cliName;
    }
    EXPECT_EQ(reg.findName("no-such-policy"), nullptr);
    EXPECT_EQ(reg.findName(""), nullptr);
}

TEST(PolicyRegistry, WireIdsRoundTrip)
{
    const auto &reg = PolicyRegistry::instance();
    for (const PolicyInfo &info : reg.all()) {
        auto wire = static_cast<std::uint8_t>(info.kind);
        const PolicyInfo *found = reg.findWireId(wire);
        ASSERT_NE(found, nullptr) << info.cliName;
        EXPECT_EQ(found->kind, info.kind);
    }
    EXPECT_EQ(reg.findWireId(200), nullptr);
    EXPECT_EQ(reg.findWireId(255), nullptr);
}

TEST(PolicyRegistry, CaptureConfigRoundTripsEveryPolicy)
{
    for (const PolicyInfo &info :
         PolicyRegistry::instance().all()) {
        serve::EngineConfig cfg;
        cfg.manager.policy = info.kind;
        std::vector<std::uint8_t> bytes =
            serve::encodeCaptureConfig(cfg);
        serve::EngineConfig decoded;
        std::string error;
        ASSERT_TRUE(
            serve::decodeCaptureConfig(bytes, decoded, &error))
            << info.cliName << ": " << error;
        EXPECT_EQ(decoded.manager.policy, info.kind);
        // Bit-exact re-encode: the decode lost nothing.
        EXPECT_EQ(serve::encodeCaptureConfig(decoded), bytes)
            << info.cliName;
    }
}

TEST(PolicyRegistry, CaptureConfigRefusesVersionOne)
{
    // Versions 1 and 2 carried nine fields that are constants since
    // version 3, and version 1 one byte more (the dense-DP flag)
    // before the manager seed.  Write each old layout at its default
    // values and seal its FNV-1a fingerprint, so only the version
    // check can reject it.
    for (std::uint8_t version : {1, 2}) {
        net::WireWriter w;
        w.putU8(version);
        w.putU32(1);       // nodes
        w.putF64(100.0);   // serverCap
        w.putU8(0);        // esd
        w.putU64(7);       // seedBase
        w.putU8(1);        // seedCorpus
        w.putF64(600.0);   // maxAdvance
        w.putU8(static_cast<std::uint8_t>(PolicyKind::AppResAware));
        w.putF64(0.10);    // sampleFraction
        w.putU8(0);        // oracleUtilities
        w.putF64(0.02);    // measurementNoise
        w.putU64(toTicks(0.018)); // calibrationPerSample
        w.putU64(toTicks(0.1));   // controlPeriod
        w.putF64(0.02);    // budgetGuard
        w.putF64(0.5);     // trimGain
        w.putU64(toTicks(0.5));   // refreshPeriod
        w.putU8(static_cast<std::uint8_t>(
            cf::SamplingStrategy::Stratified));
        if (version == 1)
            w.putU8(0);    // denseDp
        w.putU64(7);       // seed
        serve::Fnv1a h;
        h.bytes(w.bytes().data(), w.bytes().size());
        w.putU64(h.value());

        serve::EngineConfig decoded;
        std::string error;
        EXPECT_FALSE(
            serve::decodeCaptureConfig(w.bytes(), decoded, &error))
            << "version " << int{version};
        EXPECT_NE(error.find("unsupported Config version"),
                  std::string::npos)
            << error;
    }
}

TEST(PolicyRegistry, CaptureConfigRejectsUnregisteredPolicy)
{
    serve::EngineConfig cfg;
    // An enum value no build has registered: the encoder writes the
    // raw byte, the decoder must refuse it with a diagnostic instead
    // of blindly casting.
    cfg.manager.policy = static_cast<PolicyKind>(200);
    std::vector<std::uint8_t> bytes = serve::encodeCaptureConfig(cfg);
    serve::EngineConfig decoded;
    std::string error;
    EXPECT_FALSE(serve::decodeCaptureConfig(bytes, decoded, &error));
    EXPECT_NE(error.find("policy"), std::string::npos) << error;
    EXPECT_NE(error.find("200"), std::string::npos) << error;
}

TEST(PolicyRegistry, CaptureConfigRefusesFieldsThatAbortTheReplay)
{
    // Each record is sealed by the encoder, so only the field check
    // can refuse it.  Each used to decode, then abort in the replay:
    // the allocator's `dynamic_budget >= 0` assert on a NaN guard
    // band, and a node count past serve::maxNodes that sizes the
    // pool's node vector before one server is built.
    constexpr double nan = std::numeric_limits<double>::quiet_NaN();
    constexpr double inf = std::numeric_limits<double>::infinity();
    using Engine = serve::EngineConfig;
    struct Case
    {
        const char *what; ///< expected in the refusal reason
        void (*set)(Engine &);
    };
    const Case cases[] = {
        {"budgetGuard", [](Engine &c) { c.manager.budgetGuard = nan; }},
        {"budgetGuard", [](Engine &c) { c.manager.budgetGuard = inf; }},
        {"serverCap", [](Engine &c) { c.serverCap = nan; }},
        {"serverCap", [](Engine &c) { c.serverCap = inf; }},
        {"serverCap", [](Engine &c) { c.serverCap = -1.0; }},
        {"nodes", [](Engine &c) { c.nodes = serve::maxNodes + 1; }},
        // Encodes as 2^32 - 1, which an int cast wraps back to -1.
        {"nodes", [](Engine &c) { c.nodes = -1; }},
    };
    for (const Case &k : cases) {
        serve::EngineConfig cfg;
        k.set(cfg);
        std::vector<std::uint8_t> bytes = serve::encodeCaptureConfig(cfg);
        serve::EngineConfig decoded;
        std::string error;
        EXPECT_FALSE(serve::decodeCaptureConfig(bytes, decoded, &error))
            << k.what;
        EXPECT_NE(error.find(k.what), std::string::npos) << error;
    }

    // The bounds themselves are valid.
    serve::EngineConfig edge;
    edge.serverCap = 0.0;
    edge.nodes = serve::maxNodes;
    serve::EngineConfig decoded;
    EXPECT_TRUE(serve::decodeCaptureConfig(
        serve::encodeCaptureConfig(edge), decoded, nullptr));
}

} // namespace
} // namespace psm::core
