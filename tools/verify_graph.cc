// verify_graph: static verification + exhaustive registry gradcheck CLI.
//
// Runs the GraphVerifier over a representative end-to-end graph (an
// unrolled two-step training loss, the shape MSO differentiates through),
// then sweeps every op in the shape-inference registry with first-order
// (MaxGradError) and second-order (MaxHvpError) finite-difference checks.
// Exits non-zero on any diagnostic or tolerance violation, so it can gate
// CI (tools/check.sh stage "verify-graph").
//
// Between those stages it sweeps every parallel kernel's static write
// plan (OpSpec::write_plan at OpSpec::plan_example shapes) through
// VerifyWritePlan, proving no two chunks of any registered kernel write
// overlapping destination ranges, and self-tests the checker against
// planted-bad plans (an overlap, a gap, a permuted reduction lane) that
// it must reject.
//
// Flags:
//   --op=NAME            only gradcheck the named op
//   --dot=PATH           write the representative graph as Graphviz DOT
//   --max_grad_err=X     first-order tolerance (default 1e-6)
//   --max_hvp_err=X      second-order tolerance (default 1e-5)
//   --overlap-only       run only the write-overlap sweep + self-test
//   --list               print the registry and exit

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "tensor/grad.h"
#include "tensor/gradcheck.h"
#include "tensor/ops.h"
#include "tensor/verify.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace {

struct Args {
  std::string op;
  std::string dot_path;
  double max_grad_err = 1e-6;
  double max_hvp_err = 1e-5;
  bool overlap_only = false;
  bool list = false;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&arg](const char* prefix) {
      return arg.substr(std::strlen(prefix));
    };
    if (arg.rfind("--op=", 0) == 0) {
      args.op = value_of("--op=");
    } else if (arg.rfind("--dot=", 0) == 0) {
      args.dot_path = value_of("--dot=");
    } else if (arg.rfind("--max_grad_err=", 0) == 0) {
      args.max_grad_err = std::atof(value_of("--max_grad_err=").c_str());
    } else if (arg.rfind("--max_hvp_err=", 0) == 0) {
      args.max_hvp_err = std::atof(value_of("--max_hvp_err=").c_str());
    } else if (arg == "--overlap-only") {
      args.overlap_only = true;
    } else if (arg == "--list") {
      args.list = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      std::exit(2);
    }
  }
  return args;
}

// A miniature unrolled training loss touching the GNN kernels: two SGD-like
// functional updates of an embedding table driven by SpMM messages, then a
// ranking-style readout. Structurally this is PDS Algorithm 1's inner loop.
msopds::Variable BuildRepresentativeGraph(
    std::vector<msopds::Variable>* params) {
  using msopds::Constant;
  using msopds::MakeIndex;
  using msopds::Param;
  using msopds::Tensor;
  using msopds::Variable;

  Variable emb = Param(Tensor::FromMatrix(
      4, 2, {0.1, -0.2, 0.3, 0.4, -0.5, 0.2, 0.05, -0.15}));
  Variable w = Param(Tensor::FromVector({0.9, 0.3, -0.4, 0.7, 0.2}));
  params->assign({emb, w});

  const msopds::IndexVec dst = MakeIndex({0, 1, 2, 3, 0});
  const msopds::IndexVec src = MakeIndex({1, 0, 3, 2, 2});
  Variable h = emb;
  for (int step = 0; step < 2; ++step) {
    Variable messages = msopds::SpMM(dst, src, w, h, 4);
    Variable scores =
        msopds::EdgeDot(h, messages, MakeIndex({0, 1, 2, 3}),
                        MakeIndex({0, 1, 2, 3}));
    Variable loss = msopds::Sum(msopds::Square(
        msopds::Sub(scores, Constant(Tensor::FromVector(
                                {0.5, -0.1, 0.2, 0.3})))));
    // Functional gradient step (keeps the whole unroll differentiable).
    Variable grad = msopds::Grad(loss, {h})[0];
    h = msopds::Sub(h, msopds::ScalarMul(grad, 0.05));
  }
  return msopds::Add(msopds::Sum(msopds::Square(h)),
                     msopds::SquaredNorm(w));
}

// Sweeps every registered parallel kernel's write plan at its example
// shapes through VerifyWritePlan, then self-tests the checker on planted
// violations it must reject. Returns the number of failures.
int RunOverlapSweep(const std::vector<msopds::OpSpec>& registry) {
  int failures = 0;
  std::printf("\n%-16s %8s %8s %10s %7s  %s\n", "op", "units", "chunks",
              "elems", "covers", "overlap");
  for (const msopds::OpSpec& spec : registry) {
    if (!spec.write_plan) continue;  // non-parallel op: nothing to prove
    if (!spec.plan_example) {
      std::printf("%-16s: FAIL: parallel kernel without plan example\n",
                  spec.name.c_str());
      ++failures;
      continue;
    }
    const msopds::PlanExample example = spec.plan_example();
    const msopds::WritePlan plan =
        spec.write_plan(example.input_shapes, example.output_shape);
    const msopds::Status status = msopds::VerifyWritePlan(spec.name, plan);
    // A one-chunk grid proves nothing; the example shapes must exercise
    // real chunk boundaries.
    const bool multi_chunk = plan.num_chunks >= 2;
    std::printf("%-16s %8lld %8lld %10lld %7s  %s\n", spec.name.c_str(),
                static_cast<long long>(plan.units),
                static_cast<long long>(plan.num_chunks),
                static_cast<long long>(plan.output_elems),
                plan.covers_output ? "yes" : "no",
                !status.ok()          ? "FAIL"
                : multi_chunk         ? "disjoint"
                                      : "FAIL (one-chunk example)");
    if (!status.ok()) {
      std::printf("  %s\n", status.message().c_str());
      ++failures;
    } else if (!multi_chunk) {
      ++failures;
    }
  }

  // Self-test: the checker must reject planted-bad plans, or a passing
  // sweep means nothing.
  auto grid = [](int64_t units, int64_t grain, int64_t width) {
    msopds::WritePlan plan;
    plan.units = units;
    plan.grain = grain;
    plan.num_chunks = msopds::NumChunks(units, grain);
    plan.output_elems = units * width;
    for (int64_t c = 0; c < plan.num_chunks; ++c) {
      const int64_t begin = c * grain;
      const int64_t end = std::min(begin + grain, units);
      plan.writes.push_back({c, begin * width, end * width});
    }
    return plan;
  };
  struct PlantedCase {
    const char* name;
    msopds::WritePlan plan;
  };
  std::vector<PlantedCase> planted;
  {
    // Chunk 1 reaches one element into chunk 2's rows (the classic
    // off-by-one a fused kernel edit would introduce).
    msopds::WritePlan overlap = grid(100, 10, 8);
    overlap.writes[1].end += 1;
    planted.push_back({"planted overlap", overlap});
    // Full-coverage kernel that leaves a gap before its last chunk.
    msopds::WritePlan gap = grid(100, 10, 8);
    gap.writes[3].begin += 2;
    planted.push_back({"planted gap", gap});
    // Reduction combining partial slots in swapped lane order.
    msopds::WritePlan lanes = grid(100, 10, 1);
    lanes.reduction = true;
    for (int64_t c = 0; c < lanes.num_chunks; ++c) {
      lanes.reduction_lanes.push_back(c);
    }
    std::swap(lanes.reduction_lanes[2], lanes.reduction_lanes[5]);
    planted.push_back({"planted lane swap", lanes});
    // Grid arithmetic that disagrees with NumChunks.
    msopds::WritePlan arith = grid(100, 10, 8);
    arith.num_chunks += 1;
    arith.writes.push_back({arith.num_chunks - 1, 0, 0});
    planted.push_back({"planted grid mismatch", arith});
  }
  for (const PlantedCase& fixture : planted) {
    const msopds::Status status =
        msopds::VerifyWritePlan(fixture.name, fixture.plan);
    if (status.ok()) {
      std::printf("self-test FAIL: %s was not rejected\n", fixture.name);
      ++failures;
    } else {
      std::printf("self-test ok: rejected %s (%s)\n", fixture.name,
                  status.message().c_str());
    }
  }
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const std::vector<msopds::OpSpec>& registry = msopds::OpRegistry();

  if (args.list) {
    std::printf("%-16s %-6s %-8s %s\n", "op", "arity", "example", "case");
    for (const msopds::OpSpec& spec : registry) {
      const msopds::GradcheckCase c =
          spec.example ? spec.example() : msopds::GradcheckCase{};
      std::printf("%-16s %-6d %-8s %s\n", spec.name.c_str(), spec.arity,
                  spec.example ? "yes" : "no", c.description.c_str());
    }
    return 0;
  }

  if (!args.op.empty() && msopds::FindOpSpec(args.op) == nullptr) {
    std::fprintf(stderr, "--op=%s: not in the registry (see --list)\n",
                 args.op.c_str());
    return 2;
  }

  int failures = 0;

  if (args.overlap_only) {
    failures = RunOverlapSweep(registry);
    std::printf("\nwrite-overlap sweep: %d failure(s)\n", failures);
    return failures == 0 ? 0 : 1;
  }

  // Stage 1: static verification of the representative graph.
  std::vector<msopds::Variable> params;
  msopds::Variable loss = BuildRepresentativeGraph(&params);
  const msopds::VerifyResult result =
      msopds::GraphVerifier().Verify(loss, params);
  std::printf("representative graph: %lld nodes, %lld edges, %lld params, "
              "%lld bytes, depth %lld, %lld parallel-kernel node(s)\n",
              static_cast<long long>(result.stats.num_nodes),
              static_cast<long long>(result.stats.num_edges),
              static_cast<long long>(result.stats.num_params),
              static_cast<long long>(result.stats.value_bytes),
              static_cast<long long>(result.stats.max_depth),
              static_cast<long long>(result.stats.num_parallel_kernel_nodes));
  std::printf("memory: %lld live bytes (deduped buffers), %lld releasable "
              "by backward\n",
              static_cast<long long>(result.stats.live_bytes),
              static_cast<long long>(result.stats.releasable_bytes));
  std::printf("write plans: %lld node(s) overlap-checked, %lld chunk "
              "disjointness obligation(s) discharged\n",
              static_cast<long long>(result.stats.num_write_planned_nodes),
              static_cast<long long>(result.stats.num_planned_chunks));
  if (!result.diagnostics.empty()) {
    std::printf("%s", result.Report().c_str());
  }
  if (!result.ok()) {
    std::printf("FAIL: representative graph has %d error diagnostic(s)\n",
                result.num_errors());
    ++failures;
  }
  if (!args.dot_path.empty()) {
    std::ofstream out(args.dot_path);
    out << msopds::GraphToDot(loss, result.diagnostics);
    std::printf("wrote DOT dump to %s\n", args.dot_path.c_str());
  }

  // Stage 2: write-overlap sweep over every parallel kernel in the
  // registry, plus the checker self-test.
  failures += RunOverlapSweep(registry);

  // Stage 3: exhaustive first- and second-order gradcheck over the
  // registry.
  std::printf("\n%-16s %-34s %12s %12s  %s\n", "op", "case", "grad_err",
              "hvp_err", "status");
  int checked = 0;
  int skipped = 0;
  for (const msopds::OpSpec& spec : registry) {
    if (!args.op.empty() && spec.name != args.op) continue;
    if (!spec.example) {
      ++skipped;
      std::printf("%-16s %-34s %12s %12s  %s\n", spec.name.c_str(),
                  "(backward of a checked op)", "-", "-", "skip");
      continue;
    }
    const msopds::GradcheckCase c = spec.example();
    const double grad_err = msopds::MaxGradError(c.fn, c.points);
    const msopds::Tensor direction =
        msopds::Tensor::Full(c.points[c.hvp_arg].shape(), 0.35);
    const double hvp_err =
        msopds::MaxHvpError(c.fn, c.points, c.hvp_arg, direction);
    const bool ok =
        grad_err <= args.max_grad_err && hvp_err <= args.max_hvp_err;
    std::printf("%-16s %-34s %12.3e %12.3e  %s\n", spec.name.c_str(),
                c.description.c_str(), grad_err, hvp_err,
                ok ? "ok" : "FAIL");
    if (!ok) ++failures;
    ++checked;
  }
  std::printf("\n%d op(s) gradchecked, %d exercised indirectly, %d "
              "failure(s)\n",
              checked, skipped, failures);
  return failures == 0 ? 0 : 1;
}
