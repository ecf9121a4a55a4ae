#include "runner/baseline.hh"

#include <cmath>
#include <sstream>
#include <vector>

#include "sim/json.hh"
#include "sim/json_parse.hh"

namespace cereal {
namespace runner {

namespace {

/**
 * Flattened leaves of one subtree, in document order: numbers and
 * strings. Bools and nulls are schema, not results.
 */
using Leaves = std::vector<std::pair<std::string, const json::Value *>>;

void
flatten(const json::Value &v, const std::string &prefix, Leaves &out)
{
    switch (v.type) {
      case json::Value::Type::Number:
      case json::Value::Type::String:
        out.emplace_back(prefix, &v);
        break;
      case json::Value::Type::Object:
        for (const auto &kv : v.object) {
            if (kv.first == "metrics") {
                continue; // compared byte-exactly elsewhere, not here
            }
            flatten(kv.second, prefix + "." + kv.first, out);
        }
        break;
      case json::Value::Type::Array:
        for (std::size_t i = 0; i < v.array.size(); ++i) {
            flatten(v.array[i], prefix + "[" + std::to_string(i) + "]",
                    out);
        }
        break;
      default:
        break;
    }
}

/** Leaf maps keyed by path; insertion order preserved via Leaves. */
const json::Value *
findLeaf(const Leaves &leaves, const std::string &path)
{
    for (const auto &kv : leaves) {
        if (kv.first == path) {
            return kv.second;
        }
    }
    return nullptr;
}

/** A leaf as reports show it: numbers formatted, strings quoted. */
std::string
show(const json::Value &v)
{
    return v.isString() ? json::escape(v.str)
                        : json::formatDouble(v.number);
}

/** Exact equality of two leaves, type included. */
bool
sameLeaf(const json::Value &a, const json::Value &b)
{
    return a.type == b.type &&
           (a.isString() ? a.str == b.str : a.number == b.number);
}

void
compareLeaves(const Leaves &fresh, const Leaves &base,
              const Tolerance &tol, CompareResult &out)
{
    for (const auto &[path, bv] : base) {
        const json::Value *fv = findLeaf(fresh, path);
        if (fv == nullptr) {
            out.findings.push_back({path, "missing from fresh output"});
            continue;
        }
        ++out.comparedLeaves;
        if (bv->isString() || fv->isString()) {
            // Labels (backends, dominant segments) match exactly or
            // not at all: no tolerance applies to them.
            if (!sameLeaf(*fv, *bv)) {
                out.findings.push_back(
                    {path, "changed " + show(*bv) + " -> " + show(*fv)});
            }
            continue;
        }
        const double f = fv->number;
        const double b = bv->number;
        const double floor = tol.floorFor(path);
        if (floor > 0) {
            // One-sided: improvements always pass, drops fail only
            // past the ratio.
            if (f < floor * b) {
                std::ostringstream ss;
                ss << "below floor: " << json::formatDouble(f) << " < "
                   << json::formatDouble(floor) << " * "
                   << json::formatDouble(b);
                out.findings.push_back({path, ss.str()});
            }
            continue;
        }
        const double denom = std::max(std::fabs(b), 1e-12);
        const double rel = std::fabs(f - b) / denom;
        const double allowed = tol.relFor(path);
        if (rel > allowed) {
            std::ostringstream ss;
            ss << "drift " << json::formatDouble(b) << " -> "
               << json::formatDouble(f) << " (rel "
               << json::formatDouble(rel) << " > tol "
               << json::formatDouble(allowed) << ")";
            out.findings.push_back({path, ss.str()});
        }
    }
    for (const auto &f : fresh) {
        if (findLeaf(base, f.first) == nullptr) {
            out.findings.push_back(
                {f.first, "not present in baseline (run with "
                          "CEREAL_UPDATE_BASELINES=1 to record)"});
        }
    }
}

const json::Value *
pointByName(const json::Value &points, const std::string &name)
{
    for (const auto &p : points.array) {
        const json::Value *n = p.find("name");
        if (n != nullptr && n->isString() && n->str == name) {
            return &p;
        }
    }
    return nullptr;
}

} // namespace

double
Tolerance::relFor(const std::string &path) const
{
    double rel = defaultRel;
    std::size_t best = 0;
    for (const auto &ov : overrides) {
        if (ov.first.size() >= best &&
            path.find(ov.first) != std::string::npos) {
            best = ov.first.size();
            rel = ov.second;
        }
    }
    return rel;
}

double
Tolerance::floorFor(const std::string &path) const
{
    double ratio = 0;
    std::size_t best = 0;
    for (const auto &fl : floors) {
        if (fl.first.size() >= best &&
            path.find(fl.first) != std::string::npos) {
            best = fl.first.size();
            ratio = fl.second;
        }
    }
    return ratio;
}

std::string
CompareResult::report() const
{
    std::ostringstream ss;
    if (!error.empty()) {
        ss << "ERROR: " << error << "\n";
        return ss.str();
    }
    if (pass) {
        ss << "OK: " << comparedLeaves << " metrics within tolerance\n";
        return ss.str();
    }
    for (const auto &f : findings) {
        ss << "FAIL";
        if (!f.path.empty()) {
            ss << " " << f.path;
        }
        ss << ": " << f.message << "\n";
    }
    ss << findings.size() << " failure(s), " << comparedLeaves
       << " metrics compared\n";
    return ss.str();
}

CompareResult
compareBenchJson(const std::string &fresh_text,
                 const std::string &baseline_text, const Tolerance &tol)
{
    CompareResult out;

    auto fres = json::parse(fresh_text);
    if (!fres.ok()) {
        out.error = "fresh document: " + fres.error;
        return out;
    }
    auto bres = json::parse(baseline_text);
    if (!bres.ok()) {
        out.error = "baseline document: " + bres.error;
        return out;
    }
    const json::Value &fresh = fres.value;
    const json::Value &base = bres.value;

    // Identity members must match exactly.
    for (const char *key : {"schema", "bench"}) {
        const json::Value *fv = fresh.find(key);
        const json::Value *bv = base.find(key);
        if (fv == nullptr || bv == nullptr || !fv->isString() ||
            !bv->isString()) {
            out.error = std::string("missing '") + key + "' member";
            return out;
        }
        if (fv->str != bv->str) {
            out.error = std::string("'") + key + "' mismatch: fresh '" +
                        fv->str + "' vs baseline '" + bv->str + "'";
            return out;
        }
    }

    // Config members must match exactly: a different config is a
    // different experiment, not a regression.
    const json::Value *fcfg = fresh.find("config");
    const json::Value *bcfg = base.find("config");
    if (fcfg != nullptr && bcfg != nullptr) {
        Leaves fl, bl;
        flatten(*fcfg, "config", fl);
        flatten(*bcfg, "config", bl);
        for (const auto &[path, bv] : bl) {
            const json::Value *fv = findLeaf(fl, path);
            if (fv == nullptr) {
                out.findings.push_back({path, "config key missing"});
            } else if (!sameLeaf(*fv, *bv)) {
                out.findings.push_back(
                    {path, "config mismatch: fresh " + show(*fv) +
                               " vs baseline " + show(*bv)});
            }
        }
        for (const auto &f : fl) {
            if (findLeaf(bl, f.first) == nullptr) {
                out.findings.push_back(
                    {f.first, "config key not in baseline"});
            }
        }
    }

    // Points matched by name; every numeric leaf compared.
    const json::Value *fpts = fresh.find("points");
    const json::Value *bpts = base.find("points");
    if (fpts == nullptr || bpts == nullptr || !fpts->isArray() ||
        !bpts->isArray()) {
        out.error = "missing 'points' array";
        return out;
    }
    for (const auto &bp : bpts->array) {
        const json::Value *n = bp.find("name");
        if (n == nullptr || !n->isString()) {
            out.error = "baseline point without a name";
            return out;
        }
        const json::Value *fp = pointByName(*fpts, n->str);
        if (fp == nullptr) {
            out.findings.push_back(
                {"points." + n->str, "point missing from fresh output"});
            continue;
        }
        const std::string prefix = "points." + n->str;
        Leaves fl, bl;
        flatten(*fp, prefix, fl);
        flatten(bp, prefix, bl);
        // The name matched the two points; it is not a result.
        const auto isName = [&](const auto &leaf) {
            return leaf.first == prefix + ".name";
        };
        std::erase_if(fl, isName);
        std::erase_if(bl, isName);
        compareLeaves(fl, bl, tol, out);
    }
    for (const auto &fp : fpts->array) {
        const json::Value *n = fp.find("name");
        if (n != nullptr && n->isString() &&
            pointByName(*bpts, n->str) == nullptr) {
            out.findings.push_back(
                {"points." + n->str, "point not present in baseline"});
        }
    }

    // Cross-point summary, when both documents have one.
    const json::Value *fsum = fresh.find("summary");
    const json::Value *bsum = base.find("summary");
    if ((fsum != nullptr) != (bsum != nullptr)) {
        out.findings.push_back(
            {"summary", fsum != nullptr
                            ? "summary not present in baseline"
                            : "summary missing from fresh output"});
    } else if (fsum != nullptr && bsum != nullptr) {
        Leaves fl, bl;
        flatten(*fsum, "summary", fl);
        flatten(*bsum, "summary", bl);
        compareLeaves(fl, bl, tol, out);
    }

    out.pass = out.findings.empty();
    return out;
}

} // namespace runner
} // namespace cereal
