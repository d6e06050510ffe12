/**
 * @file
 * Tests of the serving stack: the frame codec (golden bytes, malformed
 * input rejection), the strict JSON request/response serialization, the
 * admission controller's class -> budget mapping, the BatchDesigner
 * request engine, and the daemon end to end — concurrent clients
 * getting artifacts bit-identical to the direct library path, graceful
 * drain on shutdown, and failpoint recovery in the accept and dispatch
 * loops.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "automata/dfa_io.hh"
#include "flow/api.hh"
#include "flow/batch.hh"
#include "flow/design_flow.hh"
#include "flow/design_memo.hh"
#include "fsmgen/designer.hh"
#include "fsmgen/profile.hh"
#include "obs/metrics.hh"
#include "serve/client.hh"
#include "serve/frame.hh"
#include "serve/net.hh"
#include "serve/server.hh"
#include "sim/packed_trace.hh"
#include "store/store.hh"
#include "support/failpoint.hh"
#include "support/json_parse.hh"
#include "support/rng.hh"
#include "workloads/trace_cache.hh"

namespace autofsm
{
namespace
{

using serve::Frame;
using serve::FrameDecoder;
using serve::FrameError;
using serve::FrameType;

/** The Section 4 worked-example trace. */
std::vector<int>
paperTrace()
{
    std::vector<int> trace;
    for (char c : std::string("000010001011110111101111"))
        trace.push_back(c == '1');
    return trace;
}

/** Deterministic pseudo-random traces that design to distinct machines. */
std::vector<int>
syntheticTrace(size_t seed, size_t length = 600)
{
    Rng rng(0x5EE0 ^ (seed * 7919));
    std::vector<int> trace;
    trace.reserve(length);
    for (size_t i = 0; i < length; ++i) {
        const int mode = static_cast<int>((i / 48 + seed) % 3);
        int bit;
        if (mode == 0)
            bit = rng.uniform() < 0.75;
        else if (mode == 1)
            bit = static_cast<int>(i & 1);
        else
            bit = i >= 2 ? (trace[i - 2] ^ 1) : 1;
        trace.push_back(bit);
    }
    return trace;
}

/** An inline-outcomes request the daemon can serve without a resolver. */
DesignRequest
outcomesRequest(uint64_t id, const std::vector<int> &trace)
{
    DesignRequest request;
    request.id = id;
    request.tenant = "test";
    request.outcomes = trace;
    request.options.order = 2;
    return request;
}

/** The artifact of the direct (no daemon) library path. */
std::string
directArtifact(const DesignRequest &request)
{
    return dfaToText(
        DesignFlow(request.options).runOnTrace(request.outcomes).design.fsm);
}

// ---------------------------------------------------------------------------
// Frame codec

TEST(FrameTest, Crc32CheckValue)
{
    EXPECT_EQ(serve::crc32("123456789"), 0xCBF43926u);
    EXPECT_EQ(serve::crc32(""), 0u);
    EXPECT_NE(serve::crc32("a"), serve::crc32("b"));
}

TEST(FrameTest, GoldenEncodedBytes)
{
    const std::string frame = serve::encodeFrame(FrameType::DesignRequest,
                                                 "{}");
    ASSERT_EQ(frame.size(), serve::kFrameHeaderBytes + 2);
    const auto byte = [&](size_t i) {
        return static_cast<uint8_t>(frame[i]);
    };
    EXPECT_EQ(byte(0), serve::kFrameVersion);
    EXPECT_EQ(byte(1), static_cast<uint8_t>(FrameType::DesignRequest));
    // Payload length 2, little-endian.
    EXPECT_EQ(byte(2), 2u);
    EXPECT_EQ(byte(3), 0u);
    EXPECT_EQ(byte(4), 0u);
    EXPECT_EQ(byte(5), 0u);
    const uint32_t crc = serve::crc32("{}");
    EXPECT_EQ(byte(6), crc & 0xFF);
    EXPECT_EQ(byte(7), (crc >> 8) & 0xFF);
    EXPECT_EQ(byte(8), (crc >> 16) & 0xFF);
    EXPECT_EQ(byte(9), (crc >> 24) & 0xFF);
    EXPECT_EQ(frame.substr(serve::kFrameHeaderBytes), "{}");
}

TEST(FrameTest, RoundTripAndPipelining)
{
    const std::string wire =
        serve::encodeFrame(FrameType::DesignRequest, "first") +
        serve::encodeFrame(FrameType::MetricsRequest, "") +
        serve::encodeFrame(FrameType::DesignResponse, "third payload");

    // Feed one byte at a time: incomplete frames must yield nullopt,
    // never an error, and all three frames must come out in order.
    FrameDecoder decoder;
    std::vector<Frame> frames;
    for (char c : wire) {
        decoder.feed(std::string_view(&c, 1));
        while (std::optional<Frame> frame = decoder.next())
            frames.push_back(std::move(*frame));
    }
    ASSERT_EQ(frames.size(), 3u);
    EXPECT_EQ(frames[0].type, FrameType::DesignRequest);
    EXPECT_EQ(frames[0].payload, "first");
    EXPECT_EQ(frames[1].type, FrameType::MetricsRequest);
    EXPECT_EQ(frames[1].payload, "");
    EXPECT_EQ(frames[2].type, FrameType::DesignResponse);
    EXPECT_EQ(frames[2].payload, "third payload");
    EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(FrameTest, RandomizedChunkSplitsDecodeIntact)
{
    // The kernel hands TCP readers arbitrary chunk boundaries; the
    // decoder must reassemble identically no matter where the splits
    // land. Drive it with deterministic random splits across several
    // seeds, including splits inside the header and inside the CRC.
    std::vector<std::string> payloads;
    payloads.push_back("");
    payloads.push_back("x");
    Rng payloadRng(0xF00D);
    for (size_t i = 0; i < 6; ++i) {
        std::string payload(17 + payloadRng.below(900), '\0');
        for (char &c : payload)
            c = static_cast<char>(payloadRng.below(256));
        payloads.push_back(std::move(payload));
    }
    std::string wire;
    for (size_t i = 0; i < payloads.size(); ++i) {
        const FrameType type = (i % 2) == 0 ? FrameType::DesignRequest
                                            : FrameType::DesignResponse;
        wire += serve::encodeFrame(type, payloads[i]);
    }

    for (uint64_t seed = 1; seed <= 8; ++seed) {
        Rng rng(seed * 0x51CE5);
        FrameDecoder decoder;
        std::vector<Frame> frames;
        size_t offset = 0;
        while (offset < wire.size()) {
            const size_t chunk = std::min<size_t>(
                1 + rng.below(37), wire.size() - offset);
            decoder.feed(std::string_view(wire).substr(offset, chunk));
            offset += chunk;
            while (std::optional<Frame> frame = decoder.next())
                frames.push_back(std::move(*frame));
        }
        ASSERT_EQ(frames.size(), payloads.size()) << "seed " << seed;
        for (size_t i = 0; i < payloads.size(); ++i)
            EXPECT_EQ(frames[i].payload, payloads[i])
                << "seed " << seed << " frame " << i;
        EXPECT_EQ(decoder.buffered(), 0u);
    }
}

TEST(FrameTest, TruncatedFrameIsIncompleteNotMalformed)
{
    const std::string frame =
        serve::encodeFrame(FrameType::DesignRequest, "payload");
    FrameDecoder decoder;
    decoder.feed(std::string_view(frame).substr(0, frame.size() - 1));
    EXPECT_EQ(decoder.next(), std::nullopt);
    EXPECT_EQ(decoder.buffered(), frame.size() - 1);
    decoder.feed(std::string_view(frame).substr(frame.size() - 1));
    const std::optional<Frame> decoded = decoder.next();
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->payload, "payload");
}

TEST(FrameTest, RejectsWrongVersion)
{
    std::string frame = serve::encodeFrame(FrameType::DesignRequest, "x");
    frame[0] = static_cast<char>(serve::kFrameVersion + 1);
    FrameDecoder decoder;
    decoder.feed(frame);
    EXPECT_THROW(decoder.next(), FrameError);
}

TEST(FrameTest, RejectsUnknownType)
{
    std::string frame = serve::encodeFrame(FrameType::DesignRequest, "x");
    frame[1] = 99;
    FrameDecoder decoder;
    decoder.feed(frame);
    EXPECT_THROW(decoder.next(), FrameError);
}

TEST(FrameTest, RejectsOversizedLength)
{
    // A decoder capped at 16 payload bytes must refuse a 17-byte length
    // from the header alone, before any payload arrives.
    const std::string frame =
        serve::encodeFrame(FrameType::DesignRequest, std::string(17, 'a'));
    FrameDecoder decoder(16);
    decoder.feed(std::string_view(frame).substr(0, serve::kFrameHeaderBytes));
    EXPECT_THROW(decoder.next(), FrameError);
}

TEST(FrameTest, RejectsCorruptPayloadCrc)
{
    std::string frame = serve::encodeFrame(FrameType::DesignRequest,
                                           "payload");
    frame[frame.size() - 1] ^= 0x01; // flip one payload bit
    FrameDecoder decoder;
    decoder.feed(frame);
    EXPECT_THROW(decoder.next(), FrameError);
}

// ---------------------------------------------------------------------------
// Strict JSON layer

TEST(ServeJsonTest, ParserBasics)
{
    const JsonValue value = JsonValue::parse(
        R"({"a": [1, 2.5, -3], "b": "xé\n", "c": true, "d": null})");
    const JsonValue *a = value.find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_EQ(a->items().size(), 3u);
    EXPECT_EQ(a->items()[0].asInt(), 1);
    EXPECT_DOUBLE_EQ(a->items()[1].asNumber(), 2.5);
    EXPECT_EQ(a->items()[2].asInt(), -3);
    EXPECT_EQ(value.find("b")->asString(), "x\xc3\xa9\n");
    EXPECT_TRUE(value.find("c")->asBool());
    EXPECT_EQ(value.find("missing"), nullptr);
}

TEST(ServeJsonTest, ParserRejectsMalformedDocuments)
{
    EXPECT_THROW(JsonValue::parse("{\"a\": 1, \"a\": 2}"),
                 std::invalid_argument); // duplicate key
    EXPECT_THROW(JsonValue::parse("{\"a\": 1} trailing"),
                 std::invalid_argument);
    EXPECT_THROW(JsonValue::parse("{\"a\": 01}"), std::invalid_argument);
    EXPECT_THROW(JsonValue::parse("[1, 2,]"), std::invalid_argument);
    EXPECT_THROW(JsonValue::parse(""), std::invalid_argument);
}

TEST(ServeJsonTest, OptionsRoundTrip)
{
    FsmDesignOptions options;
    options.order = 4;
    options.patterns.threshold = 0.625;
    options.patterns.dontCareMass = 0.05;
    options.patterns.unseenAreDontCare = false;
    options.minimizer = MinimizeAlgo::Exact;
    options.keepStartupStates = true;
    options.budget.deadlineMillis = 1234.5;
    options.budget.maxNfaStates = 77;
    const std::string json = toJson(options);
    const FsmDesignOptions parsed =
        fsmDesignOptionsFromJson(JsonValue::parse(json));
    // A faithful round trip re-serializes to the identical string.
    EXPECT_EQ(toJson(parsed), json);
    EXPECT_EQ(parsed.order, 4);
    EXPECT_EQ(parsed.minimizer, MinimizeAlgo::Exact);
    EXPECT_TRUE(parsed.keepStartupStates);
    EXPECT_DOUBLE_EQ(parsed.budget.deadlineMillis, 1234.5);
}

TEST(ServeJsonTest, RequestRoundTripWithModelSource)
{
    DesignRequest request;
    request.id = 42;
    request.tenant = "team-a";
    request.requestClass = RequestClass::Batch;
    request.options.order = 2;
    request.model = trainMarkovModel(paperTrace(), 2);

    const std::string json = toJson(request);
    const DesignRequest parsed = designRequestFromJson(json);
    EXPECT_EQ(toJson(parsed), json);
    EXPECT_EQ(parsed.id, 42u);
    EXPECT_EQ(parsed.tenant, "team-a");
    EXPECT_EQ(parsed.requestClass, RequestClass::Batch);
    ASSERT_TRUE(parsed.model.has_value());
    EXPECT_TRUE(markovEqual(*parsed.model, *request.model));

    // The round-tripped request designs the same machine.
    EXPECT_EQ(dfaToText(runDesignRequest(parsed).design.fsm),
              dfaToText(runDesignRequest(request).design.fsm));
}

TEST(ServeJsonTest, RequestParsingIsStrict)
{
    DesignRequest request = outcomesRequest(1, paperTrace());
    const std::string json = toJson(request);

    // Unknown top-level field.
    std::string unknown = json;
    unknown.insert(1, "\"surprise\": 1, ");
    EXPECT_THROW(designRequestFromJson(unknown), std::invalid_argument);

    // Out-of-range order (valid range is [1, 24]).
    request.options.order = 25;
    EXPECT_THROW(designRequestFromJson(toJson(request)),
                 std::invalid_argument);
    request.options.order = 0;
    EXPECT_THROW(designRequestFromJson(toJson(request)),
                 std::invalid_argument);

    // Outcome values outside {0,1}.
    EXPECT_THROW(
        designRequestFromJson(
            R"({"id": 1, "tenant": "t", "class": "interactive",)"
            R"( "outcomes": [0, 2]})"),
        std::invalid_argument);

    // Retired design knobs are unknown fields, not silently ignored.
    const std::string optionsKey = "\"options\":{";
    const size_t options = json.find(optionsKey);
    ASSERT_NE(options, std::string::npos);
    for (const std::string knob : {"flatProfiling", "memoizeStages"}) {
        std::string retired = json;
        retired.insert(options + optionsKey.size(),
                       "\"" + knob + "\": false, ");
        try {
            designRequestFromJson(retired);
            ADD_FAILURE() << knob << " was accepted";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find("unknown field '" + knob),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(ServeJsonTest, ResponseRoundTrip)
{
    const DesignResponse response =
        designService(outcomesRequest(7, paperTrace()));
    ASSERT_TRUE(response.ok);
    ASSERT_FALSE(response.artifact.empty());

    const std::string json = toJson(response);
    const DesignResponse parsed = designResponseFromJson(json);
    EXPECT_EQ(toJson(parsed), json);
    EXPECT_EQ(parsed.id, 7u);
    EXPECT_EQ(parsed.artifact, response.artifact);
    EXPECT_EQ(parsed.statesFinal, response.statesFinal);
    EXPECT_EQ(parsed.stages.size(), response.stages.size());

    // Failure responses carry the {stage, kind, detail} triple through.
    DesignRequest bad;
    bad.id = 8; // no source at all
    const DesignResponse failed = designService(bad);
    EXPECT_FALSE(failed.ok);
    const DesignResponse failedParsed =
        designResponseFromJson(toJson(failed));
    EXPECT_EQ(failedParsed.error.kind, "invalid-input");
    EXPECT_EQ(failedParsed.error.stage, failed.error.stage);
}

// ---------------------------------------------------------------------------
// Admission control

TEST(AdmissionTest, BudgetForClassMapping)
{
    const FlowBudget interactive = budgetForClass(RequestClass::Interactive);
    const FlowBudget batch = budgetForClass(RequestClass::Batch);
    const FlowBudget bulk = budgetForClass(RequestClass::Bulk);
    EXPECT_FALSE(interactive.unlimited());
    EXPECT_FALSE(batch.unlimited());
    EXPECT_TRUE(bulk.unlimited());
    // Interactive is strictly tighter than batch on every finite axis.
    EXPECT_LT(interactive.deadlineMillis, batch.deadlineMillis);
    EXPECT_LT(interactive.maxNfaStates, batch.maxNfaStates);
    EXPECT_LT(interactive.maxDfaStates, batch.maxDfaStates);
}

TEST(AdmissionTest, AppliesClassBudgetOnlyWhenRequestBudgetUnlimited)
{
    serve::ServeOptions options;
    options.maxQueueDepth = 4;
    const serve::AdmissionController admission(options);

    DesignRequest request = outcomesRequest(1, paperTrace());
    request.requestClass = RequestClass::Interactive;
    serve::AdmissionDecision decision = admission.admit(request, 0, false);
    ASSERT_TRUE(decision.admitted);
    EXPECT_EQ(decision.options.budget.deadlineMillis,
              budgetForClass(RequestClass::Interactive).deadlineMillis);

    // A caller-supplied finite budget is never overridden.
    request.options.budget.deadlineMillis = 99.0;
    decision = admission.admit(request, 0, false);
    ASSERT_TRUE(decision.admitted);
    EXPECT_EQ(decision.options.budget.deadlineMillis, 99.0);

    // With class budgets disabled, unlimited stays unlimited.
    serve::ServeOptions raw = options;
    raw.applyClassBudgets = false;
    request.options.budget = FlowBudget{};
    decision = serve::AdmissionController(raw).admit(request, 0, false);
    ASSERT_TRUE(decision.admitted);
    EXPECT_TRUE(decision.options.budget.unlimited());
}

TEST(AdmissionTest, RefusesFullQueueDrainingAndInvalidRequests)
{
    serve::ServeOptions options;
    options.maxQueueDepth = 2;
    const serve::AdmissionController admission(options);
    const DesignRequest request = outcomesRequest(1, paperTrace());

    serve::AdmissionDecision decision = admission.admit(request, 2, false);
    EXPECT_FALSE(decision.admitted);
    EXPECT_EQ(decision.reason, "budget-exceeded");
    EXPECT_NE(decision.detail.find("queue full"), std::string::npos);

    decision = admission.admit(request, 0, true);
    EXPECT_FALSE(decision.admitted);
    EXPECT_EQ(decision.reason, "budget-exceeded");
    EXPECT_NE(decision.detail.find("draining"), std::string::npos);

    DesignRequest invalid;
    invalid.id = 3; // no behavior source
    decision = admission.admit(invalid, 0, false);
    EXPECT_FALSE(decision.admitted);
    EXPECT_EQ(decision.reason, "invalid-input");
}

// ---------------------------------------------------------------------------
// The unified API and the batch request engine

TEST(DesignApiTest, DesignFlowMatchesRunDesignRequest)
{
    const std::vector<int> trace = syntheticTrace(7);
    FsmDesignOptions options;
    options.order = 3;
    const DesignFlow flow(options);

    // Outcomes source: the API trains and runs exactly as runOnTrace.
    DesignRequest outcomes;
    outcomes.outcomes = trace;
    outcomes.options = options;
    const FlowResult fromOutcomes = runDesignRequest(outcomes);
    const FlowResult direct = flow.runOnTrace(trace);
    EXPECT_EQ(dfaToText(fromOutcomes.design.fsm),
              dfaToText(direct.design.fsm));
    EXPECT_EQ(dfaToText(fromOutcomes.design.beforeReduction),
              dfaToText(direct.design.beforeReduction));
    EXPECT_EQ(fromOutcomes.design.regexText, direct.design.regexText);

    // Model source: the API runs exactly as run.
    DesignRequest model;
    model.model = trainMarkovModel(trace, 3);
    model.options = options;
    const FlowResult fromModel = runDesignRequest(model);
    EXPECT_EQ(dfaToText(fromModel.design.fsm),
              dfaToText(flow.run(*model.model).design.fsm));
    EXPECT_EQ(dfaToText(fromModel.design.fsm),
              dfaToText(direct.design.fsm));
}

TEST(DesignApiTest, RequestsEngineMixedSourcesDedupAndIsolation)
{
    const std::vector<int> trace = syntheticTrace(1);

    std::vector<DesignRequest> requests;
    requests.push_back(outcomesRequest(0, trace));
    // Same behavior as a pre-trained model: dedupes against item 0.
    DesignRequest asModel;
    asModel.id = 1;
    asModel.model = trainMarkovModel(trace, 2);
    asModel.options.order = 2;
    requests.push_back(asModel);
    // Same behavior, different options: must NOT dedupe.
    DesignRequest differentOptions = outcomesRequest(2, trace);
    differentOptions.options.keepStartupStates = true;
    requests.push_back(differentOptions);
    // Invalid request: fails in its own slot only.
    DesignRequest invalid;
    invalid.id = 3;
    requests.push_back(invalid);
    // A distinct behavior, designed independently.
    requests.push_back(outcomesRequest(4, syntheticTrace(2)));

    BatchDesigner designer;
    const std::vector<BatchItemResult> results =
        designer.designRequests(requests);
    ASSERT_EQ(results.size(), 5u);

    ASSERT_TRUE(results[0].ok);
    ASSERT_TRUE(results[1].ok);
    EXPECT_TRUE(results[1].fromCache);
    EXPECT_EQ(dfaToText(results[0].flow.design.fsm),
              dfaToText(results[1].flow.design.fsm));

    ASSERT_TRUE(results[2].ok);
    EXPECT_FALSE(results[2].fromCache);

    EXPECT_FALSE(results[3].ok);
    EXPECT_EQ(results[3].errorKind, "invalid-input");

    ASSERT_TRUE(results[4].ok);
    EXPECT_EQ(dfaToText(results[4].flow.design.fsm),
              directArtifact(requests[4]));

    EXPECT_EQ(designer.stats().items, 5u);
    EXPECT_EQ(designer.stats().cacheHits, 1u);
    EXPECT_EQ(designer.stats().failures, 1u);

    // designResponseFromItem carries both outcomes through.
    const DesignResponse ok = designResponseFromItem(requests[1],
                                                     results[1]);
    EXPECT_TRUE(ok.ok);
    EXPECT_TRUE(ok.fromCache);
    EXPECT_EQ(ok.artifact, dfaToText(results[0].flow.design.fsm));
    const DesignResponse failed = designResponseFromItem(requests[3],
                                                         results[3]);
    EXPECT_FALSE(failed.ok);
    EXPECT_EQ(failed.error.kind, "invalid-input");
}

// ---------------------------------------------------------------------------
// The daemon end to end

/** Starts a drain-friendly server on a free port for each test. */
class ServerTest : public ::testing::Test
{
  protected:
    void SetUp() override { failpoint::registry().clearAll(); }

    void
    TearDown() override
    {
        failpoint::registry().clearAll();
        // Tests that exercise --store-dir install a global store; reset
        // it (and the in-memory tiers it feeds) so tests stay isolated.
        store::setGlobalStore(nullptr);
        clearDesignMemo();
        clearBranchTraceCache();
        clearPackedTraceCache();
    }

    /** Start with the bit-identical comparison configuration. */
    serve::Server &startServer(serve::ServeOptions options = {})
    {
        options.port = 0;
        options.applyClassBudgets = false;
        server_ = std::make_unique<serve::Server>(options);
        server_->start();
        return *server_;
    }

    serve::Client connect()
    {
        return serve::Client("127.0.0.1", server_->port());
    }

    std::unique_ptr<serve::Server> server_;
};

TEST_F(ServerTest, SingleClientMatchesDirectLibraryPath)
{
    startServer();
    serve::Client client = connect();
    const DesignRequest request = outcomesRequest(11, syntheticTrace(3));
    const DesignResponse response = client.design(request);
    ASSERT_TRUE(response.ok) << response.error.detail;
    EXPECT_EQ(response.id, 11u);
    EXPECT_EQ(response.artifact, directArtifact(request));
    EXPECT_GT(response.statesFinal, 0);
    EXPECT_FALSE(response.stages.empty());

    const std::string metrics = client.fetchMetrics();
    EXPECT_NE(metrics.find("autofsm_serve_queue_depth"), std::string::npos);
    EXPECT_NE(metrics.find("autofsm_serve_requests_total"),
              std::string::npos);
    EXPECT_NE(metrics.find("autofsm_serve_dispatch_batch_size"),
              std::string::npos);
}

TEST_F(ServerTest, EightConcurrentClientsBitIdenticalArtifacts)
{
    constexpr size_t kClients = 8;
    constexpr size_t kRequestsPerClient = 3;
    startServer();

    std::vector<std::string> expected(kClients);
    std::vector<DesignRequest> requests(kClients);
    for (size_t c = 0; c < kClients; ++c) {
        // Half the clients share traces so the dispatcher's batch memo
        // gets exercised under concurrency, half are unique.
        requests[c] = outcomesRequest(100 + c, syntheticTrace(c % 5));
        requests[c].requestClass =
            static_cast<RequestClass>(c % 3); // mixed classes
        expected[c] = directArtifact(requests[c]);
    }

    std::vector<std::string> errors(kClients);
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            try {
                serve::Client client = connect();
                for (size_t r = 0; r < kRequestsPerClient; ++r) {
                    const DesignResponse response =
                        client.design(requests[c]);
                    if (!response.ok) {
                        errors[c] = response.error.detail;
                        return;
                    }
                    if (response.artifact != expected[c]) {
                        errors[c] = "artifact mismatch";
                        return;
                    }
                }
            } catch (const std::exception &e) {
                errors[c] = e.what();
            }
        });
    }
    for (std::thread &t : clients)
        t.join();
    for (size_t c = 0; c < kClients; ++c)
        EXPECT_EQ(errors[c], "") << "client " << c;
}

TEST_F(ServerTest, MalformedFramesDropOnlyTheirConnection)
{
    startServer();

    // A corrupt frame gets an Error frame back (or a clean close), and
    // the daemon keeps serving other clients afterwards.
    {
        serve::Socket raw = serve::connectTo("127.0.0.1", server_->port());
        std::string corrupt =
            serve::encodeFrame(FrameType::DesignRequest, "{}");
        corrupt[corrupt.size() - 1] ^= 0x01; // break the CRC
        serve::sendAll(raw, corrupt);
        FrameDecoder decoder;
        std::string chunk;
        bool sawError = false;
        while (serve::recvSome(raw, chunk)) {
            decoder.feed(chunk);
            if (std::optional<Frame> frame = decoder.next()) {
                EXPECT_EQ(frame->type, FrameType::Error);
                sawError = true;
                break;
            }
        }
        EXPECT_TRUE(sawError);
    }
    {
        // Garbage that is not even a valid header.
        serve::Socket raw = serve::connectTo("127.0.0.1", server_->port());
        serve::sendAll(raw, std::string(64, '\xff'));
        std::string chunk;
        while (serve::recvSome(raw, chunk)) {
        } // drained until the server closes
    }

    serve::Client client = connect();
    const DesignRequest request = outcomesRequest(21, paperTrace());
    const DesignResponse response = client.design(request);
    ASSERT_TRUE(response.ok) << response.error.detail;
    EXPECT_EQ(response.artifact, directArtifact(request));
}

TEST_F(ServerTest, GracefulDrainAnswersAdmittedRefusesNew)
{
    serve::ServeOptions options;
    options.workers = 2;
    serve::Server &server = startServer(options);

    constexpr size_t kThreads = 4;
    std::atomic<size_t> okResponses{0};
    std::atomic<size_t> drainRejections{0};
    std::atomic<size_t> silentDrops{0};
    std::atomic<bool> stop{false};
    std::vector<std::thread> clients;
    clients.reserve(kThreads);
    for (size_t t = 0; t < kThreads; ++t) {
        clients.emplace_back([&, t] {
            try {
                serve::Client client = connect();
                for (uint64_t i = 0; !stop.load(); ++i) {
                    const DesignResponse response = client.design(
                        outcomesRequest(1000 * t + i, syntheticTrace(t)));
                    if (response.ok) {
                        okResponses.fetch_add(1);
                    } else if (response.error.detail.find("draining") !=
                               std::string::npos) {
                        drainRejections.fetch_add(1);
                        return;
                    } else {
                        silentDrops.fetch_add(1);
                        return;
                    }
                }
            } catch (const std::exception &) {
                // Connection closed after the drain: a request the client
                // had not finished WRITING is fine to lose; an admitted
                // one is not, and admitted ones always got a response
                // above because Client::design is synchronous.
            }
        });
    }

    // Let the clients get some work admitted, then drain.
    while (okResponses.load() < kThreads)
        std::this_thread::yield();
    server.shutdown();
    stop.store(true);
    for (std::thread &t : clients)
        t.join();

    EXPECT_GE(okResponses.load(), kThreads);
    EXPECT_EQ(silentDrops.load(), 0u);

    // Post-drain connections are refused outright (accept is down).
    EXPECT_THROW(serve::Client("127.0.0.1", server.port()),
                 serve::NetError);
}

TEST_F(ServerTest, AcceptLoopRecoversFromInjectedFaults)
{
    startServer();
    // Arm AFTER start: the accept loop evaluates the failpoint once per
    // iteration, recovers (counts the fault), and keeps accepting.
    failpoint::registry().set("serve.accept", "fail-times:2");

    serve::Client client = connect();
    const DesignRequest request = outcomesRequest(31, paperTrace());
    const DesignResponse response = client.design(request);
    ASSERT_TRUE(response.ok) << response.error.detail;

    const std::string metrics = client.fetchMetrics();
    EXPECT_NE(metrics.find("autofsm_serve_accept_faults_total"),
              std::string::npos);
}

// ---------------------------------------------------------------------------
// Request-scoped observability

/** True when @p spans is one connected tree rooted at a "serve.request". */
::testing::AssertionResult
isConnectedRequestTree(const std::vector<obs::SpanRecord> &spans)
{
    if (spans.empty())
        return ::testing::AssertionFailure() << "no spans";
    std::set<uint64_t> ids;
    size_t roots = 0;
    for (const obs::SpanRecord &span : spans) {
        ids.insert(span.id);
        if (span.parent == 0) {
            ++roots;
            if (span.name != "serve.request") {
                return ::testing::AssertionFailure()
                       << "root span is " << span.name;
            }
        }
    }
    if (roots != 1) {
        return ::testing::AssertionFailure()
               << roots << " roots, expected exactly 1";
    }
    for (const obs::SpanRecord &span : spans) {
        if (span.parent != 0 && ids.count(span.parent) == 0) {
            return ::testing::AssertionFailure()
                   << "orphan span " << span.name << " (id " << span.id
                   << ") names absent parent " << span.parent;
        }
    }
    return ::testing::AssertionSuccess();
}

TEST_F(ServerTest, TracedRequestReturnsConnectedSpanTree)
{
    // Earlier tests may have memoized this design; a memo hit would
    // legitimately skip the subset/minimize stages we assert on below.
    clearDesignMemo();
    startServer();
    serve::Client client = connect();
    DesignRequest request = outcomesRequest(51, syntheticTrace(5));
    request.trace = true;
    const DesignResponse response = client.design(request);
    ASSERT_TRUE(response.ok) << response.error.detail;
    EXPECT_EQ(response.artifact, directArtifact(request));

#ifdef AUTOFSM_NO_TELEMETRY
    EXPECT_TRUE(response.trace.empty());
#else
    EXPECT_TRUE(isConnectedRequestTree(response.trace));
    // The tree covers the executed flow stages, not just serve spans.
    std::set<std::string> names;
    for (const obs::SpanRecord &span : response.trace)
        names.insert(span.name);
    EXPECT_TRUE(names.count("batch.resolve"));
    EXPECT_TRUE(names.count("batch.item"));
    EXPECT_TRUE(names.count("flow.run"));
    EXPECT_TRUE(names.count("flow.subset"));

    // And it strict-JSON round-trips through the response wire format.
    const DesignResponse parsed =
        designResponseFromJson(toJson(response));
    ASSERT_EQ(parsed.trace.size(), response.trace.size());
    for (size_t i = 0; i < parsed.trace.size(); ++i) {
        EXPECT_EQ(parsed.trace[i].id, response.trace[i].id);
        EXPECT_EQ(parsed.trace[i].parent, response.trace[i].parent);
        EXPECT_EQ(parsed.trace[i].name, response.trace[i].name);
        EXPECT_EQ(parsed.trace[i].thread, response.trace[i].thread);
    }
    EXPECT_EQ(toJson(parsed), toJson(response));
#endif
}

TEST_F(ServerTest, UntracedRequestCarriesNoSpans)
{
    startServer();
    serve::Client client = connect();
    const DesignResponse response =
        client.design(outcomesRequest(52, syntheticTrace(6)));
    ASSERT_TRUE(response.ok) << response.error.detail;
    EXPECT_TRUE(response.trace.empty());
}

TEST_F(ServerTest, ConcurrentTracedRequestsOwnDisjointTrees)
{
#ifdef AUTOFSM_NO_TELEMETRY
    GTEST_SKIP() << "built with AUTOFSM_NO_TELEMETRY";
#else
    constexpr size_t kClients = 4;
    startServer();

    std::vector<DesignResponse> responses(kClients);
    std::vector<std::string> errors(kClients);
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            try {
                serve::Client client = connect();
                // Two pairs share a trace so batch dedup is in play.
                DesignRequest request =
                    outcomesRequest(60 + c, syntheticTrace(c % 2));
                request.trace = true;
                responses[c] = client.design(request);
            } catch (const std::exception &e) {
                errors[c] = e.what();
            }
        });
    }
    for (std::thread &t : clients)
        t.join();

    std::set<uint64_t> allSpanIds;
    size_t total = 0;
    for (size_t c = 0; c < kClients; ++c) {
        ASSERT_EQ(errors[c], "") << "client " << c;
        ASSERT_TRUE(responses[c].ok) << responses[c].error.detail;
        EXPECT_TRUE(isConnectedRequestTree(responses[c].trace))
            << "client " << c;
        for (const obs::SpanRecord &span : responses[c].trace)
            allSpanIds.insert(span.id);
        total += responses[c].trace.size();
    }
    // No span leaked into more than one request's tree.
    EXPECT_EQ(allSpanIds.size(), total);
#endif
}

TEST_F(ServerTest, SlowRequestLandsInDebugRing)
{
    serve::ServeOptions options;
    options.slowRequestFraction = 0.5;
    startServer(options);
    serve::Client client = connect();

    // A deadline this tight is blown by any real design: the request
    // must show up in the slow ring with its degradation state.
    DesignRequest request = outcomesRequest(71, syntheticTrace(7));
    request.options.budget.deadlineMillis = 0.0001;
    const DesignResponse response = client.design(request);
    (void)response; // ok, degraded, or error — all legal outcomes here

    const std::string debug = client.fetchDebug();
    const JsonValue parsed = JsonValue::parse(debug); // strict
    const JsonValue *slow = parsed.find("slowRequests");
    ASSERT_NE(slow, nullptr);
    ASSERT_FALSE(slow->items().empty());
    const JsonValue &capture = slow->items()[0];
    EXPECT_EQ(capture.find("id")->asInt(), 71);
    EXPECT_EQ(capture.find("tenant")->asString(), "test");
    EXPECT_EQ(capture.find("class")->asString(), "interactive");
    EXPECT_DOUBLE_EQ(capture.find("deadlineMillis")->asNumber(), 0.0001);
    EXPECT_GE(capture.find("totalMillis")->asNumber(),
              capture.find("queueMillis")->asNumber());
    ASSERT_NE(capture.find("outcome"), nullptr);
    ASSERT_NE(capture.find("degraded"), nullptr);
#ifndef AUTOFSM_NO_TELEMETRY
    // Slow-ring sampling recorded the span tree without an opt-in.
    ASSERT_NE(capture.find("spans"), nullptr);
    EXPECT_FALSE(capture.find("spans")->items().empty());
#endif

    // A request inside its deadline does not join the ring.
    const size_t before = slow->items().size();
    const DesignResponse fine =
        client.design(outcomesRequest(72, syntheticTrace(8)));
    ASSERT_TRUE(fine.ok) << fine.error.detail;
    const JsonValue again = JsonValue::parse(client.fetchDebug());
    EXPECT_EQ(again.find("slowRequests")->items().size(), before);
}

TEST_F(ServerTest, RequestDurationHistogramInScrape)
{
    startServer();
    serve::Client client = connect();
    const DesignResponse response =
        client.design(outcomesRequest(81, syntheticTrace(9)));
    ASSERT_TRUE(response.ok) << response.error.detail;

    const std::string metrics = client.fetchMetrics();
    EXPECT_NE(
        metrics.find("autofsm_serve_request_duration_seconds_bucket"
                     "{class=\"interactive\",outcome=\"ok\""),
        std::string::npos);
    // The queue-wait vs service-time split is scraped alongside it
    // (bucket lines carry the le label after the class).
    EXPECT_NE(metrics.find("autofsm_serve_request_queue_seconds_bucket"
                           "{class=\"interactive\",le="),
              std::string::npos);
    EXPECT_NE(metrics.find("autofsm_serve_request_service_seconds_bucket"
                           "{class=\"interactive\",le="),
              std::string::npos);
    // Every class/outcome cell is pre-registered, so dashboards see
    // zero-valued series before traffic arrives.
    EXPECT_NE(
        metrics.find("autofsm_serve_request_duration_seconds_bucket"
                     "{class=\"bulk\",outcome=\"rejected\""),
        std::string::npos);
}

#ifndef AUTOFSM_NO_TELEMETRY
/** Observations so far in autofsm_flow_stage_millis{stage="markov"}. */
uint64_t
markovStageCount()
{
    const obs::MetricsSnapshot snap = obs::globalMetrics().snapshot();
    for (const obs::MetricValue &metric : snap.metrics) {
        if (metric.name == "autofsm_flow_stage_millis" &&
            metric.labels == obs::Labels{{"stage", "markov"}})
            return metric.histogram.count;
    }
    return 0;
}
#endif

TEST_F(ServerTest, OutcomeBearingRequestsRecordMarkovStage)
{
#ifdef AUTOFSM_NO_TELEMETRY
    GTEST_SKIP() << "built with AUTOFSM_NO_TELEMETRY";
#else
    serve::installWorkloadTraceResolver();
    startServer();
    serve::Client client = connect();

    std::vector<DesignRequest> requests;
    requests.push_back(outcomesRequest(61, syntheticTrace(5)));
    requests.push_back(outcomesRequest(62, syntheticTrace(6)));
    DesignRequest traceRef;
    traceRef.id = 63;
    traceRef.traceRef = "compress";
    traceRef.traceBranches = 4000;
    traceRef.options.order = 2;
    requests.push_back(traceRef);
    // A pre-trained model runs no markov stage.
    DesignRequest model;
    model.id = 64;
    model.model = trainMarkovModel(paperTrace(), 2);
    model.options.order = 2;
    requests.push_back(model);
    constexpr uint64_t kOutcomeBearing = 3;

    const uint64_t before = markovStageCount();
    for (const DesignRequest &request : requests) {
        const DesignResponse response = client.design(request);
        EXPECT_TRUE(response.ok) << response.error.detail;
    }
    EXPECT_EQ(markovStageCount() - before, kOutcomeBearing);
    setTraceRefResolver(nullptr);
#endif
}

TEST_F(ServerTest, DispatchFaultFailsOneJobStructurally)
{
    startServer();
    serve::Client client = connect();

    failpoint::registry().set("serve.dispatch", "fail-times:1");
    const DesignRequest request = outcomesRequest(41, syntheticTrace(4));
    const DesignResponse faulted = client.design(request);
    EXPECT_FALSE(faulted.ok);
    EXPECT_EQ(faulted.error.stage, "serve.dispatch");
    EXPECT_EQ(faulted.error.kind, "injected");

    // The failpoint is exhausted: the same connection now succeeds.
    const DesignResponse recovered = client.design(request);
    ASSERT_TRUE(recovered.ok) << recovered.error.detail;
    EXPECT_EQ(recovered.artifact, directArtifact(request));
}

// ---------------------------------------------------------------------------
// Client retry policy and the persistent store behind the daemon

TEST(ClientRetryTest, ConnectRetriesExhaustToNetError)
{
    // Grab a free port, then close the listener: every connect attempt
    // is refused, so the retrying constructor must back off the
    // configured number of times and then surface NetError.
    uint16_t deadPort = 0;
    { serve::Socket listener = serve::listenOn(0, &deadPort); }

    serve::ClientOptions options;
    options.connectAttempts = 3;
    options.backoffInitialMs = 1;
    options.backoffMaxMs = 4;
    EXPECT_THROW(serve::Client("127.0.0.1", deadPort, options),
                 serve::NetError);
}

TEST_F(ServerTest, ClientWithTimeoutAndRetriesMatchesDirectPath)
{
    startServer();
    serve::ClientOptions options;
    options.connectAttempts = 3;
    options.backoffInitialMs = 1;
    options.timeoutMs = 30000;
    serve::Client client("127.0.0.1", server_->port(), options);

    const DesignRequest request = outcomesRequest(91, syntheticTrace(9));
    const DesignResponse response = client.design(request);
    ASSERT_TRUE(response.ok) << response.error.detail;
    EXPECT_EQ(response.artifact, directArtifact(request));
}

TEST_F(ServerTest, WarmRestartServesIdenticalArtifactFromStore)
{
    std::string tmpl = (std::filesystem::temp_directory_path() /
                        "autofsm-servestore-XXXXXX")
                           .string();
    const std::string dir = ::mkdtemp(tmpl.data());
    ASSERT_FALSE(dir.empty());

    serve::ServeOptions options;
    options.storeDir = dir;
    const DesignRequest request = outcomesRequest(81, syntheticTrace(8));

    startServer(options);
    DesignResponse first;
    {
        serve::Client client = connect();
        first = client.design(request);
    }
    ASSERT_TRUE(first.ok) << first.error.detail;
    server_->shutdown();
    server_.reset();

    // Simulate a process restart: drop every in-memory tier so the
    // disk store is the only place the artifact can come from.
    store::setGlobalStore(nullptr);
    clearDesignMemo();
    clearBranchTraceCache();
    clearPackedTraceCache();

    startServer(options);
    serve::Client client = connect();
    const DesignResponse warmed = client.design(request);
    ASSERT_TRUE(warmed.ok) << warmed.error.detail;
    EXPECT_EQ(warmed.artifact, first.artifact);
    EXPECT_EQ(warmed.statesFinal, first.statesFinal);

    // The recovery pass validated the entry at open, so serving it
    // counts as a warm hit — the metric the CI recovery job greps.
    const std::shared_ptr<store::ArtifactStore> store =
        store::globalStore();
    ASSERT_TRUE(store);
    EXPECT_GT(store->stats().warmHits, 0u);
    EXPECT_NE(client.fetchMetrics().find("autofsm_store_warm_hits_total"),
              std::string::npos);

    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
}

} // namespace
} // namespace autofsm
