#include "search/space_spec.hh"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "characterize/mdesc.hh"
#include "common/cli.hh"
#include "common/logging.hh"
#include "common/numfmt.hh"

namespace mech {

namespace {

bool
isPow2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/**
 * Expand one numeric axis token: a plain value, or a range
 * "lo:hi[:+s|:*m]" stepping additively or multiplicatively.
 */
bool
expandToken(const std::string &token, std::vector<std::uint64_t> *out,
            std::string *error)
{
    std::size_t colon = token.find(':');
    if (colon == std::string::npos) {
        std::uint64_t v = 0;
        if (!parseU64(token, &v)) {
            *error = "bad value '" + token + "'";
            return false;
        }
        out->push_back(v);
        return true;
    }
    std::string lo_s = token.substr(0, colon);
    std::string rest = token.substr(colon + 1);
    std::size_t colon2 = rest.find(':');
    std::string hi_s =
        colon2 == std::string::npos ? rest : rest.substr(0, colon2);
    std::string step_s =
        colon2 == std::string::npos ? "+1" : rest.substr(colon2 + 1);

    std::uint64_t lo = 0, hi = 0, step = 0;
    if (!parseU64(lo_s, &lo) || !parseU64(hi_s, &hi) || lo > hi) {
        *error = "bad range '" + token + "'";
        return false;
    }
    if (step_s.size() < 2 ||
        (step_s[0] != '+' && step_s[0] != '*') ||
        !parseU64(step_s.substr(1), &step) || step == 0 ||
        (step_s[0] == '*' && step < 2)) {
        *error = "bad range step in '" + token +
                 "' (use :+N or :*N)";
        return false;
    }
    for (std::uint64_t v = lo; v <= hi;) {
        out->push_back(v);
        std::uint64_t next = step_s[0] == '+' ? v + step : v * step;
        if (next <= v)
            break; // overflow guard
        v = next;
    }
    return true;
}

template <typename T, typename Fn>
bool
appendValues(const std::string &list, std::vector<T> *axis,
             const Fn &convert, std::string *error)
{
    for (const std::string &token : cli::splitCsv(list)) {
        std::vector<std::uint64_t> values;
        if (!expandToken(token, &values, error))
            return false;
        for (std::uint64_t v : values) {
            T converted{};
            if (!convert(v, &converted)) {
                *error = "value " + std::to_string(v) +
                         " out of range in '" + list + "'";
                return false;
            }
            axis->push_back(converted);
        }
    }
    return true;
}

/**
 * Fill any empty out-of-order structure axis with the OooParams
 * default, so presets and parsed specs that never mention them
 * enumerate exactly as they did before the axes existed.
 */
void
fillOooDefaults(SpaceSpec *spec)
{
    const OooParams def;
    if (spec->robSize.empty())
        spec->robSize = {def.robSize};
    if (spec->iqSize.empty())
        spec->iqSize = {def.iqSize};
    if (spec->fuAlu.empty())
        spec->fuAlu = {def.fuAlu};
    if (spec->fuMul.empty())
        spec->fuMul = {def.fuMul};
    if (spec->fuMem.empty())
        spec->fuMem = {def.fuMem};
    if (spec->fuBr.empty())
        spec->fuBr = {def.fuBr};
    if (spec->resultBuses.empty())
        spec->resultBuses = {def.resultBuses};
}

} // namespace

SpaceSpec
SpaceSpec::table2()
{
    SpaceSpec spec;
    spec.l2KB = {128, 256, 512, 1024};
    spec.l2Assoc = {8, 16};
    spec.depthFreq = {{5, 0.6}, {7, 0.8}, {9, 1.0}};
    spec.width = {1, 2, 3, 4};
    spec.predictor = {PredictorKind::Gshare1K,
                      PredictorKind::Hybrid3K5};
    fillOooDefaults(&spec);
    spec.validate();
    return spec;
}

SpaceSpec
SpaceSpec::wide()
{
    SpaceSpec spec;
    spec.l2KB = {64, 128, 256, 512, 1024, 2048, 4096, 8192};
    spec.l2Assoc = {1, 2, 4, 8, 16, 32, 64};
    // Depth/frequency stay coupled as in Table 2; the deeper points
    // extend the paper's 200 MHz-per-two-stages slope.
    spec.depthFreq.push_back({5, 0.6});
    spec.depthFreq.push_back({7, 0.8});
    spec.depthFreq.push_back({9, 1.0});
    spec.depthFreq.push_back({11, 1.2});
    spec.depthFreq.push_back({13, 1.4});
    spec.depthFreq.push_back({15, 1.6});
    spec.depthFreq.push_back({17, 1.8});
    for (std::uint32_t w = 1; w <= 16; ++w)
        spec.width.push_back(w);
    spec.predictor = {PredictorKind::Gshare1K,
                      PredictorKind::Hybrid3K5};
    fillOooDefaults(&spec);
    spec.validate();
    return spec;
}

SpaceSpec
SpaceSpec::single(const DesignPoint &point)
{
    SpaceSpec spec;
    spec.l2KB = {point.l2KB};
    spec.l2Assoc = {point.l2Assoc};
    spec.depthFreq = {{point.depth, point.freqGHz}};
    spec.width = {point.width};
    spec.predictor = {point.predictor};
    spec.robSize = {point.ooo.robSize};
    spec.iqSize = {point.ooo.iqSize};
    spec.fuAlu = {point.ooo.fuAlu};
    spec.fuMul = {point.ooo.fuMul};
    spec.fuMem = {point.ooo.fuMem};
    spec.fuBr = {point.ooo.fuBr};
    spec.resultBuses = {point.ooo.resultBuses};
    return spec;
}

std::optional<SpaceSpec>
SpaceSpec::tryParse(const std::string &text, std::string *error)
{
    if (text == "table2")
        return table2();
    if (text == "wide")
        return wide();
    if (text.rfind("mdesc:", 0) == 0) {
        // A characterized machine description pins the space to the
        // single point it describes.  Pure: the file's latency table
        // is NOT installed here (specs parse concurrently in the
        // serve layer); tools install latencies via --mdesc.
        try {
            const MachineDescription desc =
                loadMdesc(text.substr(6));
            return single(designPointFor(desc));
        } catch (const MdescError &e) {
            *error = e.what();
            return std::nullopt;
        }
    }

    SpaceSpec spec;
    std::string body = text;
    std::size_t pos = 0;
    while (pos <= body.size()) {
        std::size_t semi = body.find(';', pos);
        if (semi == std::string::npos)
            semi = body.size();
        std::string clause = body.substr(pos, semi - pos);
        pos = semi + 1;
        // Trim surrounding spaces.
        while (!clause.empty() && clause.front() == ' ')
            clause.erase(clause.begin());
        while (!clause.empty() && clause.back() == ' ')
            clause.pop_back();
        if (clause.empty())
            continue;

        std::size_t eq = clause.find('=');
        if (eq == std::string::npos) {
            *error = "axis clause '" + clause + "' has no '='";
            return std::nullopt;
        }
        std::string axis = clause.substr(0, eq);
        std::string values = clause.substr(eq + 1);

        if (axis == "l2kb") {
            auto keep = [](std::uint64_t v, std::uint64_t *out) {
                *out = v;
                return true;
            };
            if (!appendValues(values, &spec.l2KB, keep, error))
                return std::nullopt;
        } else if (axis == "assoc") {
            if (!appendValues(values, &spec.l2Assoc, narrowU32,
                              error)) {
                return std::nullopt;
            }
        } else if (axis == "width") {
            if (!appendValues(values, &spec.width, narrowU32,
                              error)) {
                return std::nullopt;
            }
        } else if (axis == "depth") {
            for (const std::string &token : cli::splitCsv(values)) {
                std::size_t amp = token.find('@');
                if (amp == std::string::npos) {
                    *error = "depth value '" + token +
                             "' needs a frequency (depth@GHz)";
                    return std::nullopt;
                }
                std::uint32_t depth = 0;
                double freq = 0.0;
                if (!parseU32(token.substr(0, amp), &depth) ||
                    !parseF64(token.substr(amp + 1), &freq)) {
                    *error = "bad depth point '" + token + "'";
                    return std::nullopt;
                }
                spec.depthFreq.push_back({depth, freq});
            }
        } else if (axis == "pred") {
            for (const std::string &token : cli::splitCsv(values)) {
                auto kind = predictorFromKey(token);
                if (!kind) {
                    *error = "unknown predictor '" + token + "'";
                    return std::nullopt;
                }
                spec.predictor.push_back(*kind);
            }
        } else if (axis == "rob") {
            if (!appendValues(values, &spec.robSize, narrowU32,
                              error)) {
                return std::nullopt;
            }
        } else if (axis == "iq") {
            if (!appendValues(values, &spec.iqSize, narrowU32,
                              error)) {
                return std::nullopt;
            }
        } else if (axis == "fualu") {
            if (!appendValues(values, &spec.fuAlu, narrowU32,
                              error)) {
                return std::nullopt;
            }
        } else if (axis == "fumul") {
            if (!appendValues(values, &spec.fuMul, narrowU32,
                              error)) {
                return std::nullopt;
            }
        } else if (axis == "fumem") {
            if (!appendValues(values, &spec.fuMem, narrowU32,
                              error)) {
                return std::nullopt;
            }
        } else if (axis == "fubr") {
            if (!appendValues(values, &spec.fuBr, narrowU32,
                              error)) {
                return std::nullopt;
            }
        } else if (axis == "buses") {
            if (!appendValues(values, &spec.resultBuses, narrowU32,
                              error)) {
                return std::nullopt;
            }
        } else {
            *error = "unknown axis '" + axis +
                     "' (axes: l2kb, assoc, depth, width, pred, rob, "
                     "iq, fualu, fumul, fumem, fubr, buses)";
            return std::nullopt;
        }
    }

    // Omitted axes default to the Table 2 default point.
    const DesignPoint def = defaultDesignPoint();
    if (spec.l2KB.empty())
        spec.l2KB = {def.l2KB};
    if (spec.l2Assoc.empty())
        spec.l2Assoc = {def.l2Assoc};
    if (spec.depthFreq.empty())
        spec.depthFreq = {{def.depth, def.freqGHz}};
    if (spec.width.empty())
        spec.width = {def.width};
    if (spec.predictor.empty())
        spec.predictor = {def.predictor};
    fillOooDefaults(&spec);

    // Re-run the axis invariants through the non-fatal path so a bad
    // spec string reports like any other grammar error.
    if (std::string why = spec.checkAxes(); !why.empty()) {
        *error = why;
        return std::nullopt;
    }
    return spec;
}

SpaceSpec
SpaceSpec::parse(const std::string &text)
{
    std::string error;
    auto spec = tryParse(text, &error);
    if (!spec)
        fatal("bad design-space spec '", text, "': ", error);
    return *spec;
}

std::string
SpaceSpec::checkAxes() const
{
    auto dup = [](const auto &axis) {
        for (std::size_t i = 0; i < axis.size(); ++i) {
            for (std::size_t j = i + 1; j < axis.size(); ++j) {
                if (axis[i] == axis[j])
                    return true;
            }
        }
        return false;
    };
    if (l2KB.empty() || l2Assoc.empty() || depthFreq.empty() ||
        width.empty() || predictor.empty() || robSize.empty() ||
        iqSize.empty() || fuAlu.empty() || fuMul.empty() ||
        fuMem.empty() || fuBr.empty() || resultBuses.empty()) {
        return "every axis needs at least one value";
    }
    if (dup(l2KB) || dup(l2Assoc) || dup(depthFreq) || dup(width) ||
        dup(predictor) || dup(robSize) || dup(iqSize) || dup(fuAlu) ||
        dup(fuMul) || dup(fuMem) || dup(fuBr) || dup(resultBuses)) {
        return "duplicate value on an axis";
    }
    for (std::uint64_t kb : l2KB) {
        if (!isPow2(kb))
            return "L2 size " + std::to_string(kb) +
                   " KiB is not a power of two";
        // Bounded so a client-supplied geometry can never demand a
        // pathological tag-array allocation (the serve layer feeds
        // untrusted points through this check).
        if (kb > kMaxL2KB) {
            return "L2 size " + std::to_string(kb) +
                   " KiB above the supported " +
                   std::to_string(kMaxL2KB / 1024) + " MiB";
        }
    }
    for (std::uint32_t assoc : l2Assoc) {
        if (!isPow2(assoc))
            return "associativity " + std::to_string(assoc) +
                   " is not a power of two";
    }
    for (std::uint64_t kb : l2KB) {
        for (std::uint32_t assoc : l2Assoc) {
            if (kb * 1024 < static_cast<std::uint64_t>(assoc) * 64) {
                return "L2 " + std::to_string(kb) + " KiB cannot hold " +
                       std::to_string(assoc) + " ways of 64 B lines";
            }
        }
    }
    for (const DepthFreq &df : depthFreq) {
        if (df.depth < 5) {
            return "depth " + std::to_string(df.depth) +
                   " below minimum 5 (2 front-end + 3 back-end stages)";
        }
        if (df.depth > kMaxDepth) {
            return "depth " + std::to_string(df.depth) +
                   " above maximum " + std::to_string(kMaxDepth);
        }
        if (!std::isfinite(df.freqGHz) || df.freqGHz <= 0.0)
            return "frequency must be positive and finite";
        if (df.freqGHz < kMinFreqGHz || df.freqGHz > kMaxFreqGHz) {
            std::ostringstream oss;
            oss << "frequency " << exactDouble(df.freqGHz)
                << " GHz outside supported [" << kMinFreqGHz << ','
                << kMaxFreqGHz << ']';
            return oss.str();
        }
    }
    for (std::uint32_t w : width) {
        if (w < 1 || w > 16)
            return "width " + std::to_string(w) +
                   " outside supported [1,16]";
    }
    for (std::uint32_t rob : robSize) {
        if (rob < 1 || rob > kMaxRobSize) {
            return "ROB size " + std::to_string(rob) +
                   " outside supported [1," +
                   std::to_string(kMaxRobSize) + "]";
        }
        // The out-of-order interval model treats the ROB as the
        // dispatch window and requires it to cover at least one
        // dispatch group.
        for (std::uint32_t w : width) {
            if (rob < w) {
                return "ROB size " + std::to_string(rob) +
                       " smaller than width " + std::to_string(w);
            }
        }
    }
    for (std::uint32_t iq : iqSize) {
        if (iq < 1 || iq > kMaxIqSize) {
            return "issue-queue size " + std::to_string(iq) +
                   " outside supported [1," +
                   std::to_string(kMaxIqSize) + "]";
        }
    }
    auto badCount = [](const std::vector<std::uint32_t> &axis) {
        return std::any_of(axis.begin(), axis.end(),
                           [](std::uint32_t v) {
                               return v < 1 || v > kMaxFuCount;
                           });
    };
    if (badCount(fuAlu) || badCount(fuMul) || badCount(fuMem) ||
        badCount(fuBr)) {
        return "functional-unit counts must be in [1," +
               std::to_string(kMaxFuCount) + "]";
    }
    for (std::uint32_t buses : resultBuses) {
        if (buses < 1 || buses > kMaxResultBuses) {
            return "result-bus count " + std::to_string(buses) +
                   " outside supported [1," +
                   std::to_string(kMaxResultBuses) + "]";
        }
    }
    return "";
}

bool
SpaceSpec::hasOooAxes() const
{
    const OooParams def;
    auto nonTrivial = [](const std::vector<std::uint32_t> &axis,
                         std::uint32_t defValue) {
        return axis.size() > 1 ||
               (axis.size() == 1 && axis.front() != defValue);
    };
    return nonTrivial(robSize, def.robSize) ||
           nonTrivial(iqSize, def.iqSize) ||
           nonTrivial(fuAlu, def.fuAlu) ||
           nonTrivial(fuMul, def.fuMul) ||
           nonTrivial(fuMem, def.fuMem) ||
           nonTrivial(fuBr, def.fuBr) ||
           nonTrivial(resultBuses, def.resultBuses);
}

void
SpaceSpec::validate() const
{
    if (std::string why = checkAxes(); !why.empty())
        fatal("invalid design-space spec: ", why);
}

std::uint64_t
SpaceSpec::size() const
{
    std::uint64_t n = 1;
    for (std::size_t axis = 0; axis < kAxes; ++axis)
        n *= axisSize(axis);
    return n;
}

std::uint64_t
SpaceSpec::axisSize(std::size_t axis) const
{
    switch (axis) {
      case 0: return l2KB.size();
      case 1: return l2Assoc.size();
      case 2: return depthFreq.size();
      case 3: return width.size();
      case 4: return predictor.size();
      case 5: return robSize.size();
      case 6: return iqSize.size();
      case 7: return fuAlu.size();
      case 8: return fuMul.size();
      case 9: return fuMem.size();
      case 10: return fuBr.size();
      case 11: return resultBuses.size();
      default: panic("axis index ", axis, " out of range");
    }
}

std::vector<std::uint32_t>
SpaceSpec::digitsOf(std::uint64_t index) const
{
    MECH_ASSERT(index < size(), "space index out of range");
    std::vector<std::uint32_t> digits(kAxes);
    for (std::size_t axis = kAxes; axis-- > 0;) {
        std::uint64_t radix = axisSize(axis);
        digits[axis] = static_cast<std::uint32_t>(index % radix);
        index /= radix;
    }
    return digits;
}

DesignPoint
SpaceSpec::fromDigits(const std::vector<std::uint32_t> &digits) const
{
    MECH_ASSERT(digits.size() == kAxes, "need one digit per axis");
    for (std::size_t axis = 0; axis < kAxes; ++axis) {
        MECH_ASSERT(digits[axis] < axisSize(axis),
                    "axis digit out of range");
    }
    DesignPoint p;
    p.l2KB = l2KB[digits[0]];
    p.l2Assoc = l2Assoc[digits[1]];
    p.depth = depthFreq[digits[2]].depth;
    p.freqGHz = depthFreq[digits[2]].freqGHz;
    p.width = width[digits[3]];
    p.predictor = predictor[digits[4]];
    p.ooo.robSize = robSize[digits[5]];
    p.ooo.iqSize = iqSize[digits[6]];
    p.ooo.fuAlu = fuAlu[digits[7]];
    p.ooo.fuMul = fuMul[digits[8]];
    p.ooo.fuMem = fuMem[digits[9]];
    p.ooo.fuBr = fuBr[digits[10]];
    p.ooo.resultBuses = resultBuses[digits[11]];
    return p;
}

DesignPoint
SpaceSpec::at(std::uint64_t index) const
{
    return fromDigits(digitsOf(index));
}

std::vector<DesignPoint>
SpaceSpec::l2Geometries() const
{
    std::vector<DesignPoint> reps;
    reps.reserve(l2KB.size() * l2Assoc.size());
    DesignPoint base = at(0);
    for (std::uint64_t kb : l2KB) {
        for (std::uint32_t assoc : l2Assoc) {
            DesignPoint p = base;
            p.l2KB = kb;
            p.l2Assoc = assoc;
            reps.push_back(p);
        }
    }
    return reps;
}

std::string
SpaceSpec::describe() const
{
    std::ostringstream oss;
    auto list = [&oss](const char *name, const auto &axis,
                       const auto &print) {
        oss << name << '=';
        for (std::size_t i = 0; i < axis.size(); ++i) {
            if (i)
                oss << ',';
            print(axis[i]);
        }
    };
    list("l2kb", l2KB, [&oss](std::uint64_t v) { oss << v; });
    oss << ';';
    list("assoc", l2Assoc, [&oss](std::uint32_t v) { oss << v; });
    oss << ';';
    list("depth", depthFreq, [&oss](const DepthFreq &df) {
        oss << df.depth << '@' << exactDouble(df.freqGHz);
    });
    oss << ';';
    list("width", width, [&oss](std::uint32_t v) { oss << v; });
    oss << ';';
    list("pred", predictor,
         [&oss](PredictorKind kind) { oss << predictorKey(kind); });
    // The out-of-order axes are emitted only when non-trivial, so a
    // spec that never mentioned them describes exactly as before the
    // axes existed.
    if (hasOooAxes()) {
        auto u32 = [&oss](std::uint32_t v) { oss << v; };
        oss << ';';
        list("rob", robSize, u32);
        oss << ';';
        list("iq", iqSize, u32);
        oss << ';';
        list("fualu", fuAlu, u32);
        oss << ';';
        list("fumul", fuMul, u32);
        oss << ';';
        list("fumem", fuMem, u32);
        oss << ';';
        list("fubr", fuBr, u32);
        oss << ';';
        list("buses", resultBuses, u32);
    }
    return oss.str();
}

} // namespace mech
