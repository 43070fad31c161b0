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
    // Version 1 carried one more byte (the dense-DP flag) before the
    // manager seed.  Rebuild that layout from a current record, stamp
    // version 1 and re-seal the FNV-1a fingerprint, so only the
    // version check can reject it.
    std::vector<std::uint8_t> bytes =
        serve::encodeCaptureConfig(serve::EngineConfig{});
    ASSERT_GT(bytes.size(), 17u);
    bytes.insert(bytes.end() - 16, 0);
    bytes[0] = 1;
    std::uint64_t h = 14695981039346656037ULL;
    for (std::size_t i = 0; i + 8 < bytes.size(); ++i) {
        h ^= bytes[i];
        h *= 1099511628211ULL;
    }
    for (std::size_t i = 0; i < 8; ++i)
        bytes[bytes.size() - 8 + i] =
            static_cast<std::uint8_t>(h >> (8 * i));

    serve::EngineConfig decoded;
    std::string error;
    EXPECT_FALSE(serve::decodeCaptureConfig(bytes, decoded, &error));
    EXPECT_NE(error.find("unsupported Config version"),
              std::string::npos)
        << error;
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

TEST(PolicyRegistry, CaptureConfigRejectsInvalidSampling)
{
    serve::EngineConfig cfg;
    cfg.manager.sampling = static_cast<cf::SamplingStrategy>(9);
    std::vector<std::uint8_t> bytes = serve::encodeCaptureConfig(cfg);
    serve::EngineConfig decoded;
    std::string error;
    EXPECT_FALSE(serve::decodeCaptureConfig(bytes, decoded, &error));
    EXPECT_NE(error.find("sampling"), std::string::npos) << error;
}

TEST(PolicyRegistry, CaptureConfigRefusesFieldsThatAbortTheReplay)
{
    // Each record is sealed by the encoder, so only the field check
    // can refuse it.  Each used to decode, then abort the replay:
    // LearningPipeline and ControlLoop fatal(), cf::Profiler's
    // assert, and PlanSelector's fatal() on the first Server+Res-Aware
    // decision without a corpus.
    constexpr double nan = std::numeric_limits<double>::quiet_NaN();
    using Engine = serve::EngineConfig;
    struct Case
    {
        const char *what; ///< expected in the refusal reason
        void (*set)(Engine &);
    };
    const Case cases[] = {
        {"sampleFraction",
         [](Engine &c) { c.manager.sampleFraction = 0.0; }},
        {"sampleFraction",
         [](Engine &c) { c.manager.sampleFraction = 1.5; }},
        {"sampleFraction",
         [](Engine &c) { c.manager.sampleFraction = nan; }},
        {"measurementNoise",
         [](Engine &c) { c.manager.measurementNoise = -1.0; }},
        {"measurementNoise",
         [](Engine &c) { c.manager.measurementNoise = nan; }},
        {"controlPeriod",
         [](Engine &c) { c.manager.controlPeriod = 0; }},
        {"corpus",
         [](Engine &c) {
             c.manager.policy = PolicyKind::ServerResAware;
             c.seedCorpus = false;
         }},
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
    edge.manager.sampleFraction = 1.0;
    edge.manager.measurementNoise = 0.0;
    serve::EngineConfig decoded;
    EXPECT_TRUE(serve::decodeCaptureConfig(
        serve::encodeCaptureConfig(edge), decoded, nullptr));
}

} // namespace
} // namespace psm::core
