/**
 * @file
 * Shape check of bench/history.jsonl, the perf trajectory: every line
 * is one JSON object with the keys docs/benchmarking.md documents, and
 * PR numbers only grow, so the file stays append-only.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "common/json.hh"

namespace mech {
namespace {

const std::set<std::string> kWorkloads = {"search_cold", "serve_hits",
                                          "serve_validate"};
const std::set<std::string> kMetrics = {
    "setup_s",          "p50_us",          "tail_us",
    "rps",              "cpu_ms_per_req",  "max_rss_mb",
    "cpi_err_mean_pct", "cpi_err_max_pct", "ooo_cpi_err_mean_pct"};

/** Why @p entry is not a valid history line, or "" when it is. */
std::string
checkEntry(const json::Value &entry)
{
    if (!entry.isObject())
        return "not an object";
    const json::Value *pr = entry.get("pr");
    if (!pr || !pr->asU64())
        return "pr must be a whole number";
    for (const char *key : {"sha", "parent_sha"}) {
        const json::Value *v = entry.get(key);
        if (!v || !v->isString() || v->string.empty())
            return std::string(key) + " must be a non-empty string";
    }
    if (!entry.get("backfilled") || !entry.get("backfilled")->isBool())
        return "backfilled must be a bool";
    const json::Value *box = entry.get("box");
    if (!box || !box->isObject() || !box->get("nproc") ||
        !box->get("nproc")->asU64() || !box->get("compiler") ||
        !box->get("compiler")->isString() || !box->get("build_type") ||
        !box->get("build_type")->isString())
        return "box needs nproc, compiler and build_type";
    const json::Value *seconds = entry.get("seconds");
    if (!seconds || !seconds->isNumber() || seconds->number <= 0.0)
        return "seconds must be a positive number";
    const json::Value *claim = entry.get("claim");
    if (!claim || !(claim->isNull() || claim->isString()))
        return "claim must be a string or null";

    const json::Value *seeds = entry.get("seeds");
    const json::Value *workloads = entry.get("workloads");
    if (!seeds || !seeds->isObject() || !workloads ||
        !workloads->isObject() || workloads->object.empty())
        return "seeds and workloads must be objects";
    for (const auto &[name, w] : workloads->object) {
        if (!kWorkloads.count(name))
            return "unknown workload " + name;
        const json::Value *pairs = w.get("pairs");
        if (!pairs || !pairs->asU64() || *pairs->asU64() == 0)
            return name + ": pairs must be a positive whole number";
        const json::Value *used = seeds->get(name);
        if (!used || !used->isArray() ||
            used->array.size() < *pairs->asU64())
            return name + ": needs a seed per pair";
        for (const json::Value &seed : used->array) {
            if (!seed.asU64())
                return name + ": seeds must be whole numbers";
        }
        const json::Value *medians = w.get("medians");
        if (!medians || !medians->isObject() || medians->object.empty())
            return name + ": medians must be a non-empty object";
        for (const auto &[metric, m] : medians->object) {
            if (!kMetrics.count(metric))
                return name + ": unknown metric " + metric;
            const json::Value *parent = m.get("parent");
            const json::Value *change = m.get("change");
            if (!parent || !parent->isNumber() || !change ||
                !change->isNumber())
                return name + "." + metric + ": needs parent and change";
        }
    }
    return "";
}

TEST(BenchHistory, EveryLineParsesWithRequiredKeys)
{
    std::ifstream in(MECHSIM_TEST_DATA_DIR "/../../bench/history.jsonl");
    ASSERT_TRUE(in) << "bench/history.jsonl is missing";
    std::string text;
    std::uint64_t lastPr = 0;
    int lineNo = 0;
    while (std::getline(in, text)) {
        ++lineNo;
        std::string error;
        const auto entry = json::parse(text, &error);
        ASSERT_TRUE(entry) << "line " << lineNo << ": " << error;
        const std::string why = checkEntry(*entry);
        ASSERT_EQ(why, "") << "line " << lineNo;
        const std::uint64_t pr = *entry->get("pr")->asU64();
        EXPECT_GT(pr, lastPr) << "line " << lineNo << " is out of order";
        lastPr = pr;
    }
    EXPECT_GT(lineNo, 0);
}

TEST(BenchHistory, CheckRejectsMissingKeys)
{
    std::string error;
    const auto line = json::parse(
        "{\"pr\": 1, \"sha\": \"a\", \"parent_sha\": \"b\", "
        "\"backfilled\": false, \"box\": {\"nproc\": 4, \"compiler\": "
        "\"gcc\", \"build_type\": \"Release\"}, \"seconds\": 10, "
        "\"claim\": null, \"seeds\": {\"serve_hits\": [1]}, "
        "\"workloads\": {\"serve_hits\": {\"pairs\": 1, \"medians\": "
        "{\"rps\": {\"parent\": 1, \"change\": 2}}}}}",
        &error);
    ASSERT_TRUE(line) << error;
    EXPECT_EQ(checkEntry(*line), "");
    for (const char *key : {"pr", "sha", "box", "seeds", "workloads",
                            "backfilled", "claim", "seconds"}) {
        json::Value copy = *line;
        std::erase_if(copy.object,
                      [&](const auto &kv) { return kv.first == key; });
        EXPECT_NE(checkEntry(copy), "") << "without " << key;
    }
}

} // namespace
} // namespace mech
