/**
 * @file
 * End-to-end benchmark of the eDKM stack: train-time clustering of one
 * LLaMA-shaped decoder layer, single-stream palettized decode, and
 * shared-prefix batched serving. README.md in this directory describes
 * the workloads, the metrics and what each layer metric should move.
 *
 *   e2ebench --workload <cluster_layer|serve_shared_prefix>
 *            --seed <n> --seconds <s> --trace <0|1>
 *
 * Every run sets up all three families (the decoder layer to train, the
 * compressed artifact, its reader and engines), then runs whole rounds
 * for --seconds. A round runs all three families, weighted towards the
 * workload's (training or shared-prefix serving; single-stream decode
 * takes a fixed share of both), so that every end-to-end metric is
 * reported by every workload. All timing is taken here, around calls into
 * each module's public functions. --trace 1 records spans around those
 * calls, writes them as Chrome trace-event JSON and prints the per-layer
 * metrics instead of the end-to-end ones.
 *
 * The last line of standard output is one JSON object:
 *   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "api/artifact.h"
#include "api/plan.h"
#include "api/session.h"
#include "autograd/engine.h"
#include "autograd/functional.h"
#include "core/dkm.h"
#include "core/edkm.h"
#include "core/palettize.h"
#include "core/uniquify.h"
#include "device/device_manager.h"
#include "dist/learner_group.h"
#include "kernels/attention.h"
#include "kernels/kernels.h"
#include "marshal/marshal.h"
#include "nn/adamw.h"
#include "nn/transformer.h"
#include "runtime/runtime.h"
#include "serve/engine.h"
#include "serve/kv_cache.h"
#include "serve/reader.h"
#include "serve/scheduler.h"
#include "serve/server.h"
#include "tensor/ops.h"
#include "util/half.h"
#include "util/rng.h"

using namespace edkm;

namespace {

using Clock = std::chrono::steady_clock;

/** Taken during static initialisation: set-up time counts from here. */
const Clock::time_point kProcessStart = Clock::now();

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------

/** Linear-interpolation quantile of a non-empty sample. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty()) {
        throw std::runtime_error("quantile of an empty sample");
    }
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(std::floor(pos));
    size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

/** "name n=.. min=.. p50=.. max=.." for the stderr run summary. */
std::string
describe(const std::string &name, const std::vector<double> &v)
{
    std::ostringstream os;
    os << name << " n=" << v.size();
    if (!v.empty()) {
        os << " min=" << quantile(v, 0.0) << " p50=" << median(v)
           << " max=" << quantile(v, 1.0);
    }
    return os.str();
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

// ---------------------------------------------------------------------
// Metrics and checks
// ---------------------------------------------------------------------

struct Metric
{
    double value = 0.0;
    std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/** Failed correctness checks, each with a one-line reason. */
class Checks
{
  public:
    void
    expect(bool ok, const std::string &what)
    {
        if (!ok) {
            failures_.push_back(what);
        }
    }
    bool ok() const { return failures_.empty(); }
    const std::vector<std::string> &failures() const { return failures_; }

  private:
    std::vector<std::string> failures_;
};

// ---------------------------------------------------------------------
// Tracing: spans recorded by this file around calls into the library.
// Single-threaded (every traced call is made from the main thread).
// ---------------------------------------------------------------------

class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** RAII span; a no-op when tracing is off. */
    class Scope
    {
      public:
        Scope(Tracer &tr, const char *name, const char *layer,
              int64_t request = -1)
            : tr_(tr)
        {
            if (tr_.enabled_) {
                id_ = tr_.open(name, layer, request);
            }
        }
        ~Scope()
        {
            if (id_ >= 0) {
                tr_.close(id_);
            }
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &tr_;
        int64_t id_ = -1;
    };

    /** Per-layer self time: span duration minus its children's. */
    std::map<std::string, double>
    selfMs() const
    {
        std::vector<double> child_us(spans_.size(), 0.0);
        for (const Span &s : spans_) {
            if (s.parent >= 0) {
                child_us[static_cast<size_t>(s.parent)] += s.durUs;
            }
        }
        std::map<std::string, double> out;
        for (size_t i = 0; i < spans_.size(); ++i) {
            out[spans_[i].layer] +=
                (spans_[i].durUs - child_us[i]) / 1e3;
        }
        return out;
    }

    /** Chrome trace-event JSON ("X" events; args carry id/parent/req). */
    void
    write(const std::string &path) const
    {
        std::ofstream out(path);
        if (!out) {
            throw std::runtime_error("cannot write trace file " + path);
        }
        out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            out << (i == 0 ? "" : ",\n") << "{\"name\": \"" << s.name
                << "\", \"cat\": \"" << s.layer
                << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1"
                << std::fixed << std::setprecision(3)
                << ", \"ts\": " << s.startUs << ", \"dur\": " << s.durUs
                << ", \"args\": {\"id\": " << i
                << ", \"parent\": " << s.parent
                << ", \"req\": " << s.request << "}}";
        }
        out << "\n]}\n";
    }

    size_t spanCount() const { return spans_.size(); }

  private:
    struct Span
    {
        std::string name;
        std::string layer;
        int64_t parent = -1;
        int64_t request = -1;
        double startUs = 0.0;
        double durUs = 0.0;
    };

    int64_t
    open(const char *name, const char *layer, int64_t request)
    {
        Span s;
        s.name = name;
        s.layer = layer;
        s.parent = stack_.empty() ? -1 : stack_.back();
        s.request = request < 0 && s.parent >= 0
                        ? spans_[static_cast<size_t>(s.parent)].request
                        : request;
        s.startUs = std::chrono::duration<double, std::micro>(
                        Clock::now() - kProcessStart)
                        .count();
        spans_.push_back(std::move(s));
        int64_t id = static_cast<int64_t>(spans_.size()) - 1;
        stack_.push_back(id);
        return id;
    }

    void
    close(int64_t id)
    {
        Span &s = spans_[static_cast<size_t>(id)];
        s.durUs = std::chrono::duration<double, std::micro>(
                      Clock::now() - kProcessStart)
                      .count() -
                  s.startUs;
        stack_.pop_back();
    }

    bool enabled_ = false;
    std::vector<Span> spans_;
    std::vector<int64_t> stack_;
};

// ---------------------------------------------------------------------
// Arguments
// ---------------------------------------------------------------------

struct Args
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        std::string key = argv[i];
        if (i + 1 >= argc) {
            throw std::runtime_error("missing value for " + key);
        }
        std::string val = argv[++i];
        if (key == "--workload") {
            a.workload = val;
        } else if (key == "--seed") {
            a.seed = std::stoull(val);
            have_seed = true;
        } else if (key == "--seconds") {
            a.seconds = std::stod(val);
        } else if (key == "--trace") {
            if (val != "0" && val != "1") {
                throw std::runtime_error("--trace takes 0 or 1");
            }
            a.trace = val == "1";
        } else {
            throw std::runtime_error("unknown argument " + key);
        }
    }
    if (a.workload != "cluster_layer" &&
        a.workload != "serve_shared_prefix") {
        throw std::runtime_error("unknown --workload '" + a.workload + "'");
    }
    if (!have_seed || !(a.seconds > 0.0)) {
        throw std::runtime_error("--seed and a positive --seconds are "
                                 "required");
    }
    return a;
}

// ---------------------------------------------------------------------
// Provenance
// ---------------------------------------------------------------------

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            size_t colon = line.find(':');
            if (colon != std::string::npos) {
                return line.substr(line.find_first_not_of(" \t",
                                                          colon + 1));
            }
        }
    }
    return "unknown";
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
        }
        out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
    }
    return out;
}

void
printProvenance(const Args &args)
{
    const char *threads_env = std::getenv("EDKM_NUM_THREADS");
    std::cout << "{\"provenance\": {\"cpu\": \""
              << jsonEscape(cpuModel()) << "\", \"nproc\": "
              << std::thread::hardware_concurrency()
              << ", \"simd_backend\": \""
              << kernels::backendName(kernels::active().backend)
              << "\", \"build_type\": \"" << E2E_BUILD_TYPE
              << "\", \"git_sha\": \"" << E2E_GIT_SHA
              << "\", \"edkm_num_threads\": \""
              << (threads_env != nullptr ? jsonEscape(threads_env) : "")
              << "\", \"pool_threads\": "
              << runtime::Runtime::instance().threadCount()
              << ", \"workload\": \"" << args.workload
              << "\", \"seed\": " << args.seed
              << ", \"seconds\": " << args.seconds
              << ", \"trace\": " << (args.trace ? 1 : 0) << "}}\n";
}

// ---------------------------------------------------------------------
// Family 1: eDKM training of one LLaMA-shaped decoder layer.
// ---------------------------------------------------------------------

/** Geometry and hyper-parameters of the trained decoder layer. */
struct LayerGeometry
{
    int64_t dim = 256;
    int64_t batch = 16; ///< calibration rows per projection
    int bits = 3;
    int maxIters = 3;
    int learners = 8;

    int64_t
    hidden() const
    {
        nn::LlamaConfig c;
        c.dim = dim;
        return c.resolvedHidden();
    }
};

class TrainFamily
{
  public:
    TrainFamily(uint64_t seed, Tracer &tracer)
        : tracer_(tracer), group_(std::make_shared<LearnerGroup>(geo_.learners))
    {
        const int64_t d = geo_.dim, h = geo_.hidden();
        const std::vector<std::pair<std::string, Shape>> projections = {
            {"wq", {d, d}},  {"wk", {d, d}},  {"wv", {d, d}},
            {"wo", {d, d}},  {"w1", {h, d}},  {"w2", {d, h}},
            {"w3", {h, d}}};
        Rng rng(seed * 7919 + 17);
        for (const auto &[name, shape] : projections) {
            names_.push_back(name);
            // bf16-representable weights on the simulated GPU: the LLM
            // fine-tuning setting uniquification relies on.
            Tensor w = Tensor::randn(shape, rng, Device::cpu(), 0.02f)
                           .to(DType::kBf16)
                           .to(DType::kF32)
                           .to(Device::gpu(0));
            Tensor x = Tensor::randn({geo_.batch, shape[1]}, rng)
                           .to(Device::gpu(0));
            // Regression target: the layer's own dense output, so the
            // loss measures what clustering changes.
            targets_.push_back(matmul(x, w.transpose(0, 1)));
            inputs_.push_back(x);
            params_.emplace_back(w, true);
            layers_.push_back(std::make_unique<EdkmLayer>(edkmConfig(),
                                                          group_));
        }
        opt_ = std::make_unique<nn::AdamW>(params_);
    }

    /** One training step: forward, backward, AdamW. */
    void
    step()
    {
        DeviceManager &mgr = DeviceManager::instance();
        Tracer::Scope span(tracer_, "train.step", "bench");
        mgr.resetStats();
        const TransferLedger ledger0 = mgr.ledger();
        const double sim0 = mgr.simulatedSeconds();
        const DistStats dist0 = group_->stats();

        MarshalConfig mc;
        mc.minOffloadBytes = 1; // every saved tensor goes through M
        MarshalContext ctx(mc);
        auto t0 = Clock::now();
        double fwd_ms = 0.0;
        Variable loss;
        {
            SavedTensorHooksGuard guard(&ctx);
            for (size_t i = 0; i < params_.size(); ++i) {
                Variable soft;
                {
                    Tracer::Scope s(tracer_, "core.edkm.forward", "core");
                    auto f0 = Clock::now();
                    soft = layers_[i]->forward(params_[i]);
                    fwd_ms += msSince(f0);
                }
                Variable y = af::matmul(af::constant(inputs_[i]),
                                        af::transpose(soft, 0, 1));
                Variable l = af::meanAll(
                    af::square(af::sub(y, af::constant(targets_[i]))));
                loss = loss.defined() ? af::add(loss, l) : l;
            }
        }
        const int64_t saved = ctx.residentBytes();
        const TransferLedger ledger_fwd = mgr.ledger();
        const MarshalStats ms_fwd = ctx.stats();
        auto t1 = Clock::now();
        {
            Tracer::Scope s(tracer_, "autograd.backward", "autograd");
            backward(loss);
        }
        auto t2 = Clock::now();
        {
            Tracer::Scope s(tracer_, "nn.adamw.step", "nn");
            opt_->step();
            opt_->zeroGrad();
        }
        auto t3 = Clock::now();

        stepS_.push_back(msBetween(t0, t3) / 1e3);
        fwdMs_.push_back(fwd_ms);
        bwdMs_.push_back(msBetween(t1, t2));
        optMs_.push_back(msBetween(t2, t3));
        saved_.push_back(static_cast<double>(saved));
        gpuPeak_.push_back(
            static_cast<double>(mgr.stats(Device::gpu(0)).peakBytes));

        const TransferLedger ledger1 = mgr.ledger();
        const MarshalStats &m = ctx.stats();
        marshal_.packs += m.packs;
        marshal_.copies += m.copies;
        marshal_.duplicatesAvoided += m.duplicatesAvoided;
        marshal_.bytesCopied += m.bytesCopied;
        marshal_.bytesAvoided += m.bytesAvoided;
        marshal_.walkSteps += m.walkSteps;
        d2hBytes_ += ledger1.d2hBytes - ledger0.d2hBytes;
        h2dBytes_ += ledger1.h2dBytes - ledger0.h2dBytes;
        simS_ += mgr.simulatedSeconds() - sim0;
        allGathers_ += group_->stats().allGathers - dist0.allGathers;
        allGatherBytes_ +=
            group_->stats().allGatherBytes - dist0.allGatherBytes;
        // Byte ledger: the forward's device->host bytes must be exactly
        // what the marshaling layer says it copied.
        fwdD2h_ += ledger_fwd.d2hBytes - ledger0.d2hBytes;
        fwdCopied_ += ms_fwd.bytesCopied;

        int64_t uniq = 0, dense_map = 0;
        for (const auto &layer : layers_) {
            uniq += layer->report().uniqueCount;
            dense_map += layer->report().denseMapBytes;
        }
        unique_.push_back(static_cast<double>(uniq));
        denseMapBytes_ = dense_map;
    }

    /** A first step whose figures are dropped (first-touch costs). */
    void
    warmUp()
    {
        step();
        for (auto *v : {&stepS_, &fwdMs_, &bwdMs_, &optMs_, &saved_,
                        &gpuPeak_, &unique_}) {
            v->clear();
        }
        marshal_ = MarshalStats{};
        d2hBytes_ = h2dBytes_ = simS_ = allGathers_ = allGatherBytes_ = 0;
    }

    /**
     * Traced only: the clustering inner pieces called directly on the
     * current weights — uniquify and the fused attention table.
     */
    void
    timeKernels()
    {
        double uniq_ms = 0.0, table_ms = 0.0;
        for (size_t i = 0; i < params_.size(); ++i) {
            const Tensor &w = params_[i].data();
            UniqueDecomposition dec;
            {
                Tracer::Scope s(tracer_, "core.uniquify", "core");
                auto t0 = Clock::now();
                dec = uniquify(w, HalfKind::kBf16);
                uniq_ms += msSince(t0);
            }
            Tensor u = Tensor::fromVector(dec.values, {dec.uniqueCount(), 1},
                                          w.device());
            const EdkmLayer &layer = *layers_[i];
            {
                Tracer::Scope s(tracer_, "kernels.attention_table",
                                "kernels");
                auto t0 = Clock::now();
                Tensor table = kernels::attentionTable(
                    u, layer.centroids(), layer.report().temperatureUsed);
                table_ms += msSince(t0);
            }
        }
        uniquifyMs_.push_back(uniq_ms);
        tableMs_.push_back(table_ms);
    }

    /** Every cluster_layer check; runs one extra (unmeasured) step. */
    void
    check(Checks &checks)
    {
        // Unique count: snapshot the weights, run a step, and compare
        // the layers' reported count with our own bf16 pattern count.
        int64_t expected_unique = 0;
        std::vector<std::vector<float>> before;
        for (const Variable &p : params_) {
            before.push_back(p.data().toVector());
            std::unordered_set<uint16_t> patterns;
            for (float v : before.back()) {
                patterns.insert(static_cast<uint16_t>(
                    floatToHalfBits(v, HalfKind::kBf16)));
            }
            expected_unique += static_cast<int64_t>(patterns.size());
        }
        step();
        checks.expect(static_cast<int64_t>(unique_.back()) ==
                          expected_unique,
                      "core.unique_count " +
                          std::to_string(static_cast<int64_t>(
                              unique_.back())) +
                          " != counted bf16 patterns " +
                          std::to_string(expected_unique));

        // Bounds and rank order, per projection, on the weights the
        // last forward clustered.
        for (size_t i = 0; i < params_.size(); ++i) {
            const std::vector<float> &w = before[i];
            const EdkmLayer &layer = *layers_[i];
            std::vector<float> c = layer.centroids().toVector();
            auto [wmin, wmax] = std::minmax_element(w.begin(), w.end());
            auto [cmin, cmax] = std::minmax_element(c.begin(), c.end());
            bool in_range = *cmin >= *wmin && *cmax <= *wmax;
            checks.expect(in_range, names_[i] +
                                        ": centroids outside [min w, "
                                        "max w]");
            // Soft weights are convex combinations of the centroids; a
            // one-ulp slack covers the rounding of the combination.
            Variable soft;
            {
                NoGradGuard ng;
                EdkmLayer probe(edkmConfig(), group_);
                soft = probe.forward(
                    Variable(Tensor::fromVector(w, params_[i].data().shape(),
                                                Device::gpu(0))));
                c = probe.centroids().toVector();
            }
            std::tie(cmin, cmax) = std::minmax_element(c.begin(), c.end());
            const float slack =
                std::max(std::fabs(*cmin), std::fabs(*cmax)) * 1.2e-7f;
            std::vector<float> sw = soft.data().toVector();
            auto [smin, smax] = std::minmax_element(sw.begin(), sw.end());
            checks.expect(*smin >= *cmin - slack && *smax <= *cmax + slack,
                          names_[i] + ": soft weight outside [min c, max c]");
            // Rank: w_i < w_j must give c(w_i) <= c(w_j).
            PalettizedTensor pal = layer.palettize(
                Tensor::fromVector(w, params_[i].data().shape()));
            std::vector<float> hard = pal.decompress().toVector();
            std::vector<size_t> order(w.size());
            for (size_t k = 0; k < order.size(); ++k) {
                order[k] = k;
            }
            std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
                return w[a] < w[b];
            });
            bool ranked = true;
            for (size_t k = 1; k < order.size() && ranked; ++k) {
                ranked = hard[order[k]] >= hard[order[k - 1]];
            }
            checks.expect(ranked, names_[i] + ": palettization breaks "
                                              "weight rank order");
        }

        checks.expect(saved_.back() < static_cast<double>(denseMapBytes_),
                      "saved_bytes " + std::to_string(saved_.back()) +
                          " not below the dense attention-map bytes " +
                          std::to_string(denseMapBytes_));
        checks.expect(fwdD2h_ == fwdCopied_,
                      "device d2h bytes " + std::to_string(fwdD2h_) +
                          " != marshal bytes_copied " +
                          std::to_string(fwdCopied_));
    }

    void
    reportEndToEnd(Metrics &e2e) const
    {
        e2e["train_step_s"] = {median(stepS_), "s"};
        e2e["saved_bytes"] = {median(saved_), "bytes"};
        e2e["gpu_peak_bytes"] = {median(gpuPeak_), "bytes"};
    }

    /** Per-layer metrics; needs a traced run (timeKernels). */
    void
    reportLayers(Metrics &layer) const
    {
        const double n = static_cast<double>(stepS_.size());
        layer["core.edkm.forward_ms"] = {median(fwdMs_), "ms"};
        layer["autograd.backward_ms"] = {median(bwdMs_), "ms"};
        layer["nn.adamw.step_ms"] = {median(optMs_), "ms"};
        layer["core.uniquify_ms"] = {median(uniquifyMs_), "ms"};
        layer["kernels.attention_table_ms"] = {median(tableMs_), "ms"};
        layer["core.unique_count"] = {median(unique_), "count"};
        layer["marshal.packs"] = {marshal_.packs / n, "count"};
        layer["marshal.copies"] = {marshal_.copies / n, "count"};
        layer["marshal.duplicates_avoided"] = {
            marshal_.duplicatesAvoided / n, "count"};
        layer["marshal.bytes_copied"] = {marshal_.bytesCopied / n,
                                         "bytes"};
        layer["marshal.bytes_avoided"] = {marshal_.bytesAvoided / n,
                                          "bytes"};
        layer["marshal.walk_steps"] = {marshal_.walkSteps / n, "count"};
        layer["marshal.dedup_ratio"] = {
            ratio(static_cast<double>(marshal_.duplicatesAvoided),
                  static_cast<double>(marshal_.packs)),
            "ratio"};
        layer["device.d2h_bytes"] = {d2hBytes_ / n, "bytes"};
        layer["device.h2d_bytes"] = {h2dBytes_ / n, "bytes"};
        layer["device.sim_s"] = {simS_ / n, "s"};
        layer["dist.all_gathers"] = {allGathers_ / n, "count"};
        layer["dist.all_gather_bytes"] = {allGatherBytes_ / n, "bytes"};
        layer["core.table2_reduction"] = {table2Reduction_, "x"};
    }

    /**
     * One dim x dim projection against the dense DkmLayer: eDKM (M+U+S)
     * must give the same output and gradient within the tolerances of
     * tests/test_edkm.cc. The weight comes from a fixed seed, not from
     * --seed, so the outcome is the same in every run. The dense run is
     * also Table 2's baseline row (no M, U or S): its saved bytes over
     * the eDKM run's is the measured reduction.
     * @return true when both match.
     */
    bool
    denseReference()
    {
        Rng rng(20240917);
        const Tensor w = Tensor::randn({geo_.dim, geo_.dim}, rng,
                                       Device::cpu(), 0.02f)
                             .to(DType::kBf16)
                             .to(DType::kF32)
                             .to(Device::gpu(0));
        const Tensor upstream =
            Tensor::randn(w.shape(), rng).to(Device::gpu(0));
        struct Run
        {
            Tensor out, grad;
            int64_t saved = 0;
        };
        auto run = [&](auto &layer, MarshalConfig::Detection det) {
            MarshalConfig mc;
            mc.minOffloadBytes = 1;
            mc.detection = det;
            MarshalContext ctx(mc);
            Variable wv(w.clone(), true);
            Variable loss;
            Variable out;
            {
                SavedTensorHooksGuard guard(&ctx);
                out = layer.forward(wv);
                loss = af::sumAll(af::mul(out, af::constant(upstream)));
            }
            Run r;
            r.saved = ctx.residentBytes();
            backward(loss);
            r.out = out.data().to(Device::cpu());
            r.grad = wv.grad().to(Device::cpu());
            return r;
        };
        Tracer::Scope span(tracer_, "check.dense_reference", "bench");
        const auto t0 = Clock::now();
        DkmLayer dense(edkmConfig().dkm);
        Run a = run(dense, MarshalConfig::Detection::kNone);
        EdkmLayer efficient(edkmConfig(), group_);
        Run b = run(efficient, MarshalConfig::Detection::kGraphWalk);
        table2Reduction_ = ratio(static_cast<double>(a.saved),
                                 static_cast<double>(b.saved));
        denseOutDiff_ = maxAbsDiff(a.out, b.out);
        denseGradDiff_ = maxAbsDiff(a.grad, b.grad);
        denseMs_.push_back(msSince(t0));
        return denseOutDiff_ < 1e-4f && denseGradDiff_ < 2e-3f;
    }

    std::string
    summary() const
    {
        return describe("train_step_s", stepS_) + "; " +
               describe("dense_reference_ms", denseMs_);
    }

    float denseOutDiff() const { return denseOutDiff_; }
    float denseGradDiff() const { return denseGradDiff_; }


  private:
    EdkmConfig
    edkmConfig() const
    {
        EdkmConfig c;
        c.dkm.bits = geo_.bits;
        c.dkm.maxIters = geo_.maxIters;
        c.uniquify = true; // U
        c.shard = true;    // S (M is the MarshalContext of each step)
        return c;
    }

    LayerGeometry geo_;
    Tracer &tracer_;
    std::shared_ptr<LearnerGroup> group_;
    std::vector<std::string> names_;
    std::vector<Variable> params_;
    std::vector<Tensor> inputs_, targets_;
    std::vector<std::unique_ptr<EdkmLayer>> layers_;
    std::unique_ptr<nn::AdamW> opt_;

    std::vector<double> stepS_, fwdMs_, bwdMs_, optMs_, saved_, gpuPeak_,
        unique_, uniquifyMs_, tableMs_, denseMs_;
    MarshalStats marshal_;
    double d2hBytes_ = 0, h2dBytes_ = 0, simS_ = 0, allGathers_ = 0,
           allGatherBytes_ = 0;
    int64_t fwdD2h_ = 0, fwdCopied_ = 0, denseMapBytes_ = 0;
    double table2Reduction_ = 0.0;
    float denseOutDiff_ = 0.0f, denseGradDiff_ = 0.0f;
};

// ---------------------------------------------------------------------
// The served model: compressed once per run with api::Session.
// ---------------------------------------------------------------------

nn::LlamaConfig
servedConfig(uint64_t seed)
{
    nn::LlamaConfig c;
    c.vocab = 512;
    c.dim = 256;
    c.heads = 4;
    c.layers = 2;
    c.seed = seed * 31 + 5;
    return c;
}

/** Compress a seeded model to a 3-bit eDKM artifact at @p path. */
void
buildArtifact(uint64_t seed, const std::string &path)
{
    nn::MiniLlama model(servedConfig(seed));
    api::CompressionPlan plan;
    plan.scheme = "edkm";
    plan.bits = 3;
    plan.dkmMaxIters = 2;
    plan.embeddingBits = 4;
    api::CalibData calib;
    calib.trainConfig.steps = 0; // freeze-only: the serving cost matters
    api::Session session;
    api::SessionResult res = session.run(model, plan, std::move(calib));
    res.artifact.save(path);
}

std::vector<int64_t>
randomTokens(Rng &rng, int64_t n, int64_t vocab)
{
    std::vector<int64_t> t;
    for (int64_t i = 0; i < n; ++i) {
        t.push_back(rng.randint(0, vocab - 1));
    }
    return t;
}

using Request = serve::InferenceEngine::Request;

/** Greedy decode through prefill + decodeStep, as generate() does. */
std::vector<int64_t>
tracedGenerate(serve::InferenceEngine &engine, const Request &req,
               Tracer &tracer, int64_t req_id, std::vector<double> &prefill_ms,
               std::vector<double> &step_ms)
{
    const nn::LlamaConfig &m = engine.config();
    const int64_t s = static_cast<int64_t>(req.prompt.size());
    serve::KvCache kv(m.layers, m.heads, m.dim / m.heads,
                      s + req.maxNewTokens);
    std::vector<int64_t> tokens = req.prompt;
    Tensor logits;
    {
        Tracer::Scope span(tracer, "serve.engine.prefill", "serve.engine",
                           req_id);
        auto t0 = Clock::now();
        logits = engine.prefill(Tensor::fromIndices(req.prompt, {1, s}), kv);
        prefill_ms.push_back(msSince(t0));
    }
    int64_t next =
        argmaxLastDim(logits.slice(0, s - 1, s)).flatAtInt(0);
    tokens.push_back(next);
    for (int64_t i = 1; i < req.maxNewTokens; ++i) {
        Tracer::Scope span(tracer, "serve.engine.decode_step",
                           "serve.engine", req_id);
        auto t0 = Clock::now();
        Tensor l = engine.decodeStep(next, kv);
        step_ms.push_back(msSince(t0));
        next = argmaxLastDim(l).flatAtInt(0);
        tokens.push_back(next);
    }
    return tokens;
}

// ---------------------------------------------------------------------
// Family 2: single-stream closed-loop decode.
// ---------------------------------------------------------------------

class DecodeFamily
{
  public:
    static constexpr int64_t kNewTokens = 64;
    static constexpr int64_t kMinLen = 40; ///< prompt lengths, inclusive
    static constexpr int64_t kMaxLen = 56;

    DecodeFamily(uint64_t seed, std::shared_ptr<const serve::ArtifactReader> reader,
                 Tracer &tracer)
        : reader_(std::move(reader)), tracer_(tracer), rng_(seed * 104729 + 3)
    {
        // Warm engine heap: everything the engine holds after serving a
        // request (lazy caches, KV cache), the mapping excluded. The
        // warm-up prompt is the longest, so the KV cache has the same
        // size whatever the seed.
        StatsScope scope(Device::cpu());
        engine_ = std::make_unique<serve::InferenceEngine>(reader_);
        engine_->generate(Request(
            randomTokens(rng_, kMaxLen, reader_->config().vocab),
            kNewTokens));
        residentBytes_ = scope.currentDelta();
        fused0_ = engine_->stats().fusedDecodes;
        streamed0_ = engine_->stats().streamedMatmuls;
    }

    /** One request, served alone (the previous one has completed). */
    void
    request()
    {
        const Request req = nextRequest();
        const int64_t id = served_++;
        Tracer::Scope span(tracer_, "decode.request", "bench", id);
        auto t0 = Clock::now();
        std::vector<int64_t> tokens;
        if (tracer_.enabled()) {
            tokens = tracedGenerate(*engine_, req, tracer_, id, prefillMs_,
                                    stepMs_);
        } else {
            tokens = engine_->generate(req).tokens;
        }
        requestMs_.push_back(msSince(t0));
        newTokens_ += kNewTokens;
        if (samples_.size() < kChecked) {
            samples_.push_back({req, tokens});
        }
    }

    /** Sampled requests against an eager argmax loop on the full prefix. */
    void
    check(Checks &checks, const std::string &path) const
    {
        nn::MiniLlama model = api::ModelArtifact::load(path).reconstruct();
        NoGradGuard ng;
        for (const Sample &s : samples_) {
            std::vector<int64_t> ref = s.req.prompt;
            for (int64_t i = 0; i < s.req.maxNewTokens; ++i) {
                Tensor logits =
                    model
                        .forward(Tensor::fromIndices(
                            ref, {1, static_cast<int64_t>(ref.size())}))
                        .data();
                int64_t n = logits.size(0);
                ref.push_back(
                    argmaxLastDim(logits.slice(0, n - 1, n)).flatAtInt(0));
            }
            checks.expect(ref == s.tokens,
                          "decode: engine tokens differ from the eager "
                          "full-prefix argmax loop");
        }
    }

    void
    reportEndToEnd(Metrics &e2e) const
    {
        // Medians over requests: a stretch in which the host preempts
        // this process slows a few requests, not the figure.
        std::vector<double> tok_s;
        for (double ms : requestMs_) {
            tok_s.push_back(static_cast<double>(kNewTokens) / (ms / 1e3));
        }
        e2e["decode_tok_s"] = {median(tok_s), "tokens/s"};
        e2e["req_p50_ms"] = {median(requestMs_), "ms"};
        e2e["resident_bytes"] = {static_cast<double>(residentBytes_),
                                 "bytes"};
    }

    /** Per-layer metrics; needs a traced run (prefill/step samples). */
    void
    reportLayers(Metrics &layer) const
    {
        const double tokens = static_cast<double>(newTokens_);
        const serve::EngineStats &st = engine_->stats();
        layer["serve.engine.prefill_ms"] = {median(prefillMs_), "ms"};
        layer["serve.engine.decode_step_p50_ms"] = {median(stepMs_), "ms"};
        layer["serve.engine.decode_step_p99_ms"] = {quantile(stepMs_, 0.99),
                                                    "ms"};
        layer["serve.engine.decode_step_samples"] = {
            static_cast<double>(stepMs_.size()), "count"};
        layer["serve.engine.fused_decodes"] = {
            (st.fusedDecodes - fused0_) / tokens, "count/token"};
        layer["serve.engine.streamed_matmuls"] = {
            (st.streamedMatmuls - streamed0_) / tokens, "count/token"};
    }


    std::string
    summary() const
    {
        return describe("decode_req_ms", requestMs_);
    }

  private:
    struct Sample
    {
        Request req;
        std::vector<int64_t> tokens;
    };
    static constexpr size_t kChecked = 1;

    /**
     * Distinct seeded prompts of seeded length in [kMinLen, kMaxLen]. The
     * band is narrow so that the request medians do not depend on how
     * many requests a run happens to serve.
     */
    Request
    nextRequest()
    {
        const int64_t len = rng_.randint(kMinLen, kMaxLen);
        return Request(randomTokens(rng_, len, reader_->config().vocab),
                       kNewTokens);
    }

    std::shared_ptr<const serve::ArtifactReader> reader_;
    Tracer &tracer_;
    Rng rng_;
    std::unique_ptr<serve::InferenceEngine> engine_;
    int64_t served_ = 0;
    int64_t residentBytes_ = 0;
    int64_t fused0_ = 0, streamed0_ = 0;
    int64_t newTokens_ = 0;
    std::vector<double> requestMs_, prefillMs_, stepMs_;
    std::vector<Sample> samples_;
};

// ---------------------------------------------------------------------
// Family 3: shared-prefix serving, batched with the prefix cache on.
// ---------------------------------------------------------------------

/**
 * A fixed pool of requests, served as bursts of kBurst arrivals on a
 * seeded schedule (open loop inside a burst: each request is submitted
 * when due, whatever the server is doing). A burst ends when its last
 * request completes. Bursts walk the pool in order.
 */
class ServeFamily
{
  public:
    static constexpr int64_t kHeads = 3;   ///< shared prompt heads
    static constexpr int64_t kHeadLen = 96;
    static constexpr int64_t kShared = 12; ///< requests with a head
    static constexpr int64_t kUnshared = 4;
    static constexpr int64_t kNewTokens = 16;
    static constexpr int64_t kBurst = 8;       ///< arrivals per burst
    /// Bursts that walk the pool once; rounds hold whole cycles.
    static constexpr int64_t kCycle = (kShared + kUnshared) / kBurst;
    static constexpr double kBurstGapMs = 4.0; ///< mean gap inside a burst

    ServeFamily(uint64_t seed,
                std::shared_ptr<const serve::ArtifactReader> reader,
                Tracer &tracer)
        : reader_(std::move(reader)), tracer_(tracer)
    {
        Rng rng(seed * 15485863 + 11);
        const int64_t vocab = reader_->config().vocab;
        std::vector<std::vector<int64_t>> heads;
        for (int64_t h = 0; h < kHeads; ++h) {
            heads.push_back(randomTokens(rng, kHeadLen, vocab));
        }
        // Fixed layout, seeded contents: each burst of 8 is shared,
        // shared, shared, unshared, twice over, the shared ones cycling
        // through the heads. The prefix cache then sees the same pattern
        // whatever the seed.
        int64_t shared = 0, unshared = 0;
        for (int64_t i = 0; i < kShared + kUnshared; ++i) {
            if (i % 4 != 3) {
                std::vector<int64_t> p =
                    heads[static_cast<size_t>(shared % kHeads)];
                std::vector<int64_t> tail =
                    randomTokens(rng, 8 + (shared % 3) * 8, vocab);
                p.insert(p.end(), tail.begin(), tail.end());
                pool_.emplace_back(std::move(p), kNewTokens);
                ++shared;
            } else {
                pool_.emplace_back(
                    randomTokens(rng, 64 + (unshared % 3) * 24, vocab),
                    kNewTokens);
                ++unshared;
            }
        }
        double t = 0.0;
        for (int64_t i = 0; i < kBurst; ++i) {
            offsetsMs_.push_back(t);
            t += kBurstGapMs * (0.5 + rng.uniform());
        }
        served_.resize(pool_.size());

        // Warm the serving path with a request outside the pool.
        const Request warm(randomTokens(rng, kHeadLen, vocab), kNewTokens);
        if (tracer_.enabled()) {
            engine_ = std::make_unique<serve::InferenceEngine>(reader_);
            sched_ = std::make_unique<serve::BatchScheduler>(
                *engine_, schedulerConfig());
            sched_->run({warm});
            base_ = sched_->stats();
            basePrefix_ = sched_->prefixStats();
        } else {
            serve::ServerConfig cfg;
            cfg.batched = true;
            cfg.scheduler = schedulerConfig();
            server_ = std::make_unique<serve::Server>(reader_, cfg);
            serve::Server::RequestId id = server_->submit(warm);
            server_->wait(id);
            warmPrompt_ = static_cast<int64_t>(warm.prompt.size());
            warmReused_ = server_->requestStats(id).reusedPrefixTokens;
            server_->release(id);
        }
    }

    static serve::SchedulerConfig
    schedulerConfig()
    {
        serve::SchedulerConfig c;
        c.maxBatch = 8;
        c.prefillChunkTokens = 64;
        c.prefixCacheBytes = 3ll << 19; // ~3 banked prompts: evictions
        return c;
    }

    /**
     * One pool cycle of bursts, not measured: the first bursts meet an
     * empty prefix cache, which later ones never do. Responses are still
     * checked. Per-layer figures count from the end of the warm-up.
     */
    void
    warmUp(Checks &checks)
    {
        for (int64_t i = 0; i < kCycle; ++i) {
            burst(checks, false);
        }
        if (tracer_.enabled()) {
            layerBase_ = sched_->stats();
            layerBasePrefix_ = sched_->prefixStats();
        }
        schedStepMs_.clear();
        queueWaitMs_.clear();
        lateMsMax_ = 0.0;
    }

    /** One burst of kBurst requests; returns the number served. */
    int64_t
    burst(Checks &checks, bool measured = true)
    {
        std::vector<size_t> members;
        for (int64_t i = 0; i < kBurst; ++i) {
            members.push_back(next_++ % pool_.size());
        }
        std::vector<std::pair<double, double>> spans; // due, done (ms)
        if (tracer_.enabled()) {
            burstScheduler(members, spans, checks);
        } else {
            burstServer(members, spans, checks);
        }
        if (!measured) {
            return kBurst;
        }
        double end = 0.0;
        for (size_t i = 0; i < spans.size(); ++i) {
            latencyMs_.push_back(spans[i].second - spans[i].first);
            end = std::max(end, spans[i].second);
        }
        burstMs_.push_back(end);
        return kBurst;
    }

    /** Traced only: the engine's batched calls, timed directly. */
    void
    timeBatchCalls()
    {
        serve::InferenceEngine engine(reader_);
        const nn::LlamaConfig &m = engine.config();
        const int64_t batch = 8, chunk = 64, steps = 24;
        std::vector<std::unique_ptr<serve::KvCache>> caches;
        std::vector<serve::KvCache *> kvs;
        std::vector<int64_t> next;
        for (int64_t b = 0; b < batch; ++b) {
            const Request &r = pool_[static_cast<size_t>(b)];
            const int64_t len = static_cast<int64_t>(r.prompt.size());
            caches.push_back(std::make_unique<serve::KvCache>(
                m.layers, m.heads, m.dim / m.heads, len + steps + 1));
            kvs.push_back(caches.back().get());
            Tensor logits;
            for (int64_t done = 0; done < len; done += chunk) {
                const int64_t c = std::min(chunk, len - done);
                std::vector<int64_t> part(r.prompt.begin() + done,
                                          r.prompt.begin() + done + c);
                Tracer::Scope s(tracer_, "serve.engine.prefill_chunk",
                                "serve.engine");
                auto t0 = Clock::now();
                logits = engine.prefillChunk(
                    Tensor::fromIndices(part, {1, c}), *kvs.back());
                prefillChunkMs_.push_back(msSince(t0));
            }
            const int64_t rows = logits.size(0);
            next.push_back(argmaxLastDim(logits.slice(0, rows - 1, rows))
                               .flatAtInt(0));
        }
        for (int64_t s = 0; s < steps; ++s) {
            Tracer::Scope span(tracer_, "serve.engine.decode_step_batch",
                               "serve.engine");
            auto t0 = Clock::now();
            Tensor logits = engine.decodeStepBatch(next, kvs);
            batchStepMs_.push_back(msSince(t0));
            for (int64_t b = 0; b < batch; ++b) {
                next[static_cast<size_t>(b)] =
                    argmaxLastDim(logits.slice(0, b, b + 1)).flatAtInt(0);
            }
        }
    }

    /**
     * Every served response equals its request served alone through a
     * fresh engine; reused plus prefilled prompt tokens equal the prompt
     * tokens admitted.
     */
    void
    check(Checks &checks) const
    {
        for (size_t i = 0; i < pool_.size(); ++i) {
            if (served_[i].empty()) {
                continue;
            }
            serve::InferenceEngine fresh(reader_);
            checks.expect(fresh.generate(pool_[i]).tokens == served_[i],
                          "serve: response differs from the request "
                          "served alone");
        }
        int64_t prefilled = 0, reused = 0, admitted = promptTokens_;
        if (tracer_.enabled()) {
            prefilled = sched_->stats().prefillTokens - base_.prefillTokens;
            reused = sched_->prefixStats().reusedTokens -
                     basePrefix_.reusedTokens;
        } else {
            // Server mode: the scheduler's prefill count is only in the
            // metrics snapshot; it includes the warm-up request.
            const std::string json = server_->metricsJson();
            const std::string key = "\"prefill_tokens\": ";
            const size_t at = json.find(key);
            prefilled = at == std::string::npos
                            ? -1
                            : std::stoll(json.substr(at + key.size()));
            reused = reusedTokens_ + warmReused_;
            admitted += warmPrompt_;
        }
        checks.expect(reused + prefilled == admitted,
                      "serve: reused " + std::to_string(reused) +
                          " + prefilled " + std::to_string(prefilled) +
                          " != admitted prompt tokens " +
                          std::to_string(admitted));
    }

    void
    reportEndToEnd(Metrics &e2e) const
    {
        e2e["serve_p50_ms"] = {median(latencyMs_), "ms"};
        e2e["req_p95_ms"] = {quantile(latencyMs_, 0.95), "ms"};
        // Tokens per second of each pool cycle (the bursts differ in
        // their prompts), median over cycles.
        std::vector<double> tok_s;
        for (size_t b = 0; b + kCycle <= burstMs_.size(); b += kCycle) {
            double ms = 0.0;
            for (int64_t i = 0; i < kCycle; ++i) {
                ms += burstMs_[b + static_cast<size_t>(i)];
            }
            tok_s.push_back(static_cast<double>(kCycle * kBurst * kNewTokens) /
                            (ms / 1e3));
        }
        e2e["serve_tok_s"] = {median(tok_s), "tokens/s"};
    }

    /** Per-layer metrics; needs a traced run (timeBatchCalls). */
    void
    reportLayers(Metrics &layer) const
    {
        const serve::SchedulerStats &st = sched_->stats();
        const serve::PrefixCacheStats px = sched_->prefixStats();
        const serve::PrefixCacheStats &px0 = layerBasePrefix_;
        const double hits = static_cast<double>(px.hits - px0.hits);
        const double lookups =
            hits + static_cast<double>(px.misses - px0.misses);
        const double reused =
            static_cast<double>(px.reusedTokens - px0.reusedTokens);
        const double prefilled =
            static_cast<double>(st.prefillTokens - layerBase_.prefillTokens);
        layer["gen.late_ms_max"] = {lateMsMax_, "ms"};
        layer["serve.engine.decode_step_batch_ms"] = {median(batchStepMs_),
                                                      "ms"};
        layer["serve.engine.prefill_chunk_ms"] = {median(prefillChunkMs_),
                                                  "ms"};
        layer["serve.sched.step_ms"] = {median(schedStepMs_), "ms"};
        layer["serve.sched.batch_mean"] = {
            ratio(static_cast<double>(st.decodedTokens -
                                      layerBase_.decodedTokens),
                  static_cast<double>(st.steps - layerBase_.steps)),
            "requests"};
        layer["serve.sched.queue_wait_ms"] = {median(queueWaitMs_), "ms"};
        layer["serve.prefix.hit_rate"] = {ratio(hits, lookups), "ratio"};
        layer["serve.prefix.reuse_ratio"] = {ratio(reused, reused + prefilled),
                                             "ratio"};
        layer["serve.prefix.evicted_bytes"] = {
            ratio(static_cast<double>(px.evictedBytes - px0.evictedBytes),
                  static_cast<double>(latencyMs_.size())),
            "bytes/request"};
    }

    std::string
    summary() const
    {
        return describe("serve_latency_ms", latencyMs_) + "; " +
               describe("serve_burst_ms", burstMs_);
    }

  private:
    void
    noteResponse(size_t member, const std::vector<int64_t> &tokens,
                 Checks &checks)
    {
        // Every response of one pool entry must be the same; check()
        // compares it against the request served alone.
        std::vector<int64_t> &first = served_[member];
        if (first.empty()) {
            first = tokens;
        }
        checks.expect(tokens == first,
                      "serve: response differs between bursts");
        promptTokens_ += static_cast<int64_t>(pool_[member].prompt.size());
    }

    Clock::time_point
    dueAt(Clock::time_point start, size_t i) const
    {
        return start + std::chrono::microseconds(
                           static_cast<int64_t>(offsetsMs_[i] * 1e3));
    }

    /** Untraced: serve::Server in batched mode, submissions on time. */
    void
    burstServer(const std::vector<size_t> &members,
                std::vector<std::pair<double, double>> &spans,
                Checks &checks)
    {
        const Clock::time_point start = Clock::now();
        std::vector<serve::Server::RequestId> ids;
        std::vector<Clock::time_point> submitted;
        for (size_t i = 0; i < members.size(); ++i) {
            std::this_thread::sleep_until(dueAt(start, i));
            submitted.push_back(Clock::now());
            lateMsMax_ = std::max(lateMsMax_,
                                  msBetween(dueAt(start, i), submitted.back()));
            ids.push_back(server_->submit(pool_[members[i]]));
        }
        for (size_t i = 0; i < ids.size(); ++i) {
            serve::Server::Response res = server_->wait(ids[i]);
            const serve::Server::RequestStats st =
                server_->requestStats(ids[i]);
            server_->release(ids[i]);
            spans.emplace_back(offsetsMs_[i],
                               msBetween(start, submitted[i]) +
                                   st.queueMillis + st.millis);
            reusedTokens_ += st.reusedPrefixTokens;
            noteResponse(members[i], res.tokens, checks);
        }
    }

    /**
     * Traced: the same arrivals through a BatchScheduler stepped here,
     * so each step, queue wait and prefix counter is observable.
     */
    void
    burstScheduler(const std::vector<size_t> &members,
                   std::vector<std::pair<double, double>> &spans,
                   Checks &checks)
    {
        struct Done
        {
            bool ok = false;
            double ms = 0.0;
            std::vector<int64_t> tokens;
        };
        std::vector<Done> done(members.size());
        const Clock::time_point start = Clock::now();
        size_t next = 0, finished = 0;
        while (finished < members.size()) {
            const Clock::time_point now = Clock::now();
            while (next < members.size() && dueAt(start, next) <= now &&
                   sched_->hasCapacity()) {
                const size_t i = next++;
                const double late = msBetween(dueAt(start, i), now);
                lateMsMax_ = std::max(lateMsMax_, late);
                queueWaitMs_.push_back(late);
                sched_->admit(pool_[members[i]],
                              [&, i](serve::BatchScheduler::Response &&res,
                                     std::exception_ptr err,
                                     const serve::SchedulerRequestStats &) {
                                  done[i].ok = err == nullptr;
                                  done[i].ms = msSince(start);
                                  done[i].tokens = std::move(res.tokens);
                                  ++finished;
                              });
            }
            if (sched_->busy()) {
                Tracer::Scope span(tracer_, "serve.sched.step",
                                   "serve.sched");
                auto t0 = Clock::now();
                sched_->step();
                schedStepMs_.push_back(msSince(t0));
            } else if (next < members.size()) {
                std::this_thread::sleep_until(dueAt(start, next));
            }
        }
        for (size_t i = 0; i < members.size(); ++i) {
            checks.expect(done[i].ok, "serve: scheduler request failed");
            spans.emplace_back(offsetsMs_[i], done[i].ms);
            noteResponse(members[i], done[i].tokens, checks);
        }
    }

    std::shared_ptr<const serve::ArtifactReader> reader_;
    Tracer &tracer_;
    std::vector<Request> pool_;
    std::vector<double> offsetsMs_;
    std::vector<std::vector<int64_t>> served_; ///< first response per entry
    size_t next_ = 0;
    std::unique_ptr<serve::Server> server_;
    std::unique_ptr<serve::InferenceEngine> engine_;
    std::unique_ptr<serve::BatchScheduler> sched_;
    // Traced only: counters after the warm-up request (for prompt-token
    // conservation) and after warmUp() (for the per-layer figures).
    serve::SchedulerStats base_, layerBase_;
    serve::PrefixCacheStats basePrefix_, layerBasePrefix_;
    int64_t warmPrompt_ = 0, warmReused_ = 0;

    std::vector<double> latencyMs_, burstMs_, schedStepMs_, queueWaitMs_,
        batchStepMs_, prefillChunkMs_;
    double lateMsMax_ = 0.0;
    int64_t promptTokens_ = 0, reusedTokens_ = 0;
};

// ---------------------------------------------------------------------
// Palette kernels, called directly on the artifact's views (traced).
// ---------------------------------------------------------------------

void
timePaletteKernels(const serve::ArtifactReader &reader, uint64_t seed,
                   Tracer &tracer, Metrics &layer)
{
    const struct
    {
        const char *name;
        const char *section;
    } classes[] = {{"dim_x_dim", "blocks.0.attn.wq.weight"},
                   {"hidden_x_dim", "blocks.0.mlp.w1.weight"},
                   {"vocab_x_dim", "lm_head.weight"}};
    Rng rng(seed + 1);
    const int64_t dim = reader.config().dim;
    Tensor x1 = Tensor::randn({1, dim}, rng);
    Tensor x8 = Tensor::randn({8, dim}, rng);
    for (const auto &c : classes) {
        PaletteView view = reader.paletteView(c.section);
        for (const auto &[m, x] : {std::pair<int, const Tensor *>{1, &x1},
                                   std::pair<int, const Tensor *>{8, &x8}}) {
            std::vector<double> us;
            for (int rep = 0; rep < (m == 1 ? 200 : 50); ++rep) {
                Tracer::Scope span(tracer, m == 1 ? "core.palette_matmul_m1"
                                                  : "core.palette_matmul_m8",
                                   "core");
                auto t0 = Clock::now();
                Tensor y = paletteMatmulT(*x, view);
                us.push_back(msSince(t0) * 1e3);
            }
            layer[std::string("core.palette_matmul_m") + std::to_string(m) +
                  "_us." + c.name] = {median(us), "us"};
        }
    }
    // Packed weight bytes one decode token streams: every palettized
    // linear (the embedding is a row gather, not a matmul).
    double bytes = 0.0;
    for (const api::TensorSection &s : reader.sections()) {
        if (s.codec == api::Codec::kPalettized && s.name != "embed.weight") {
            bytes += static_cast<double>(s.bytes);
        }
    }
    layer["core.palette_bytes_per_token"] = {bytes, "bytes"};
}

// ---------------------------------------------------------------------
// One run: set-up, measurement window, checks, result
// ---------------------------------------------------------------------

/**
 * Operations of each family in one round of a workload. The named
 * workload's family takes the largest share of a round; closed-loop
 * decode takes about a quarter of both; every family gets ten or more
 * samples in a run, so that its medians are steady too. Serve bursts
 * come in whole pool cycles.
 */
struct RoundMix
{
    int64_t trainSteps = 0;
    int64_t decodeRequests = 0;
    int64_t serveCycles = 0;
};

RoundMix
roundMix(const std::string &workload)
{
    if (workload == "cluster_layer") {
        return {4, 3, 1};
    }
    return {2, 3, 3}; // serve_shared_prefix
}


void
printResult(bool correct, int64_t attempted, int64_t failed,
            const Metrics &metrics)
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    bool first = true;
    os << std::setprecision(10);
    for (const auto &[name, m] : metrics) {
        os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
           << m.value << ", \"unit\": \"" << m.unit << "\"}";
        first = false;
    }
    os << "}}";
    std::cout << os.str() << std::endl;
}

int
run(const Args &args)
{
    Tracer tracer(args.trace);
    printProvenance(args);
    Metrics e2e, layer;
    Checks checks;
    const std::filesystem::path dir = ".bench_build/e2ebench-run";
    std::filesystem::create_directories(dir);
    const std::string stem = args.workload + "-" + std::to_string(args.seed);
    const std::string path = (dir / ("artifact-" + stem + ".edkm")).string();

    // ---- Set-up of every family, timed from process start ----
    std::vector<std::pair<const char *, double>> setup_ms;
    auto setup_t = Clock::now();
    auto setupLap = [&](const char *what) {
        setup_ms.emplace_back(what, msSince(setup_t));
        setup_t = Clock::now();
    };
    TrainFamily train(args.seed, tracer);
    setupLap("train");
    buildArtifact(args.seed, path);
    setupLap("compress");
    std::shared_ptr<const serve::ArtifactReader> reader;
    {
        auto t0 = Clock::now();
        reader = serve::ArtifactReader::open(path);
        layer["serve.reader.open_ms"] = {msSince(t0), "ms"};
    }
    DecodeFamily decode(args.seed, reader, tracer);
    setupLap("decode");
    ServeFamily serve(args.seed, reader, tracer);
    serve.warmUp(checks);
    setupLap("serve");
    train.warmUp();
    setupLap("train_warmup");
    e2e["setup_s"] = {msSince(kProcessStart) / 1e3, "s"};
    e2e["artifact_bytes"] = {static_cast<double>(reader->fileBytes()),
                             "bytes"};

    // ---- Measurement window: whole rounds ----
    // Every round runs all three families, weighted towards the named
    // workload, then one dense-reference comparison
    // (TrainFamily::denseReference). Spreading the other families over
    // the window keeps their figures steady; whole rounds keep the share
    // of failed operations the same in every run. Another round starts
    // while it would end closer to the deadline than stopping now; so the
    // window is --seconds long on average, not half a round more.
    const RoundMix mix = roundMix(args.workload);
    int64_t attempted = 0, failed = 0, rounds = 0;
    double elapsed_ms = 0.0;
    const auto window_start = Clock::now();
    do {
        for (int64_t i = 0; i < mix.trainSteps; ++i) {
            train.step();
        }
        for (int64_t i = 0; i < mix.decodeRequests; ++i) {
            decode.request();
        }
        for (int64_t i = 0; i < mix.serveCycles * ServeFamily::kCycle; ++i) {
            serve.burst(checks);
        }
        attempted += mix.trainSteps + mix.decodeRequests +
                     mix.serveCycles * ServeFamily::kCycle *
                         ServeFamily::kBurst +
                     1;
        if (!train.denseReference()) {
            ++failed;
        }
        ++rounds;
        elapsed_ms = msSince(window_start);
    } while (elapsed_ms + 0.5 * elapsed_ms / static_cast<double>(rounds) <
             args.seconds * 1e3);
    if (failed > 0) {
        std::cerr << "e2ebench: " << failed << " dense-reference "
                  << "operation(s) failed: eDKM vs dense DKM max |diff| "
                  << "output " << train.denseOutDiff() << ", gradient "
                  << train.denseGradDiff() << "\n";
    }
    if (args.trace) {
        train.timeKernels();
        serve.timeBatchCalls();
        timePaletteKernels(*reader, args.seed, tracer, layer);
    }

    const double window_s = msSince(window_start) / 1e3;
    const auto checks_start = Clock::now();

    // ---- Correctness ----
    train.check(checks);
    const double train_check_s = msSince(checks_start) / 1e3;
    decode.check(checks, path);
    const double decode_check_s = msSince(checks_start) / 1e3 - train_check_s;
    serve.check(checks);
    for (const std::string &f : checks.failures()) {
        std::cerr << "e2ebench: check failed: " << f << "\n";
    }
    reader.reset();
    std::filesystem::remove(path);
    std::cerr << "e2ebench: set-up " << e2e["setup_s"].value << " s, window "
              << window_s << " s, checks " << msSince(checks_start) / 1e3
              << " s (train " << train_check_s << ", decode " << decode_check_s
              << ")\n";
    std::cerr << "e2ebench: set-up ms";
    for (const auto &[what, ms] : setup_ms) {
        std::cerr << " " << what << "=" << ms;
    }
    std::cerr << "\ne2ebench: " << train.summary() << "; "
              << decode.summary() << "; " << serve.summary() << "\n";

    train.reportEndToEnd(e2e);
    decode.reportEndToEnd(e2e);
    serve.reportEndToEnd(e2e);
    if (args.trace) {
        train.reportLayers(layer);
        decode.reportLayers(layer);
        serve.reportLayers(layer);
        const std::string out = (dir / ("trace-" + stem + ".json")).string();
        tracer.write(out);
        std::map<std::string, double> self = tracer.selfMs();
        double total = 0.0;
        for (const auto &[name, ms] : self) {
            total += ms;
        }
        std::cout << "{\"trace_file\": \"" << jsonEscape(out)
                  << "\", \"spans\": " << tracer.spanCount()
                  << ", \"self_ms\": {";
        bool first = true;
        for (const auto &[name, ms] : self) {
            std::cout << (first ? "" : ", ") << "\"" << name << "\": {\"ms\": "
                      << ms << ", \"share\": " << ratio(ms, total) << "}";
            first = false;
        }
        // The end-to-end figures of the traced run, for the tracing
        // overhead (compare with an untraced run of the same seed).
        std::cout << "}, \"end_to_end\": {";
        first = true;
        for (const auto &[name, m] : e2e) {
            std::cout << (first ? "" : ", ") << "\"" << name << "\": "
                      << m.value;
            first = false;
        }
        std::cout << "}}\n";
    }
    printResult(checks.ok(), attempted, failed, args.trace ? layer : e2e);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    try {
        args = parseArgs(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << "e2ebench: " << e.what() << "\n";
        return 2;
    }
    try {
        return run(args);
    } catch (const std::exception &e) {
        std::cerr << "e2ebench: " << e.what() << "\n";
        return 1;
    }
}
