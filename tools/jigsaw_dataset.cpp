// jigsaw_dataset — generate, inspect, and validate JKSD dataset files
// (src/data/, docs/datasets.md).
//
//   jigsaw_dataset generate --out file.jksd [--n 64] [--coils 8]
//                           [--chunks 4] [--samples-per-chunk M]
//                           [--traj radial|golden-radial|spiral|vd-spiral|
//                            rosette|propeller|random|cartesian]
//                           [--noise F] [--seed S] [--embed-dcf]
//                           [--engine E] synthesize a multi-coil acquisition
//   jigsaw_dataset inspect  file.jksd     print the header + per-chunk table
//   jigsaw_dataset validate file.jksd     stream every chunk, verify
//                                         checksums; exit 0 clean, 2 when
//                                         any chunk was rejected
//
// `validate`'s exit-code contract is what scripts/ci.sh asserts on: a
// corrupted file is *detected* (exit 2, rejects listed) while recon on the
// same file still succeeds from the surviving chunks.
#include <cstdio>
#include <string>

#include "common/cli.hpp"
#include "core/gridder.hpp"
#include "data/dataset.hpp"
#include "data/synthetic.hpp"
#include "trajectory/trajectory.hpp"

using namespace jigsaw;

namespace {

trajectory::TrajectoryType parse_traj(const std::string& s) {
  if (s == "radial") return trajectory::TrajectoryType::Radial;
  if (s == "spiral") return trajectory::TrajectoryType::Spiral;
  if (s == "rosette") return trajectory::TrajectoryType::Rosette;
  if (s == "random") return trajectory::TrajectoryType::Random;
  if (s == "cartesian") return trajectory::TrajectoryType::Cartesian;
  if (s == "golden-radial" || s == "golden") {
    return trajectory::TrajectoryType::GoldenRadial;
  }
  if (s == "vd-spiral") return trajectory::TrajectoryType::VdSpiral;
  if (s == "propeller") return trajectory::TrajectoryType::Propeller;
  throw std::invalid_argument("unknown trajectory: " + s);
}

const char* source_name(data::Source s) {
  switch (s) {
    case data::Source::kSheppLogan:
      return "shepp-logan";
    case data::Source::kUnknown:
      break;
  }
  return "unknown";
}

int cmd_generate(const CliArgs& args) {
  const std::string out = args.get("out");
  if (out.empty()) {
    std::fprintf(stderr, "generate: --out <file.jksd> is required\n");
    return 2;
  }
  data::SyntheticOptions opt;
  opt.n = args.get_int("n", 64);
  opt.coils = static_cast<int>(args.get_int("coils", 8));
  opt.chunks = static_cast<int>(args.get_int("chunks", 4));
  opt.samples_per_chunk = args.get_int("samples-per-chunk", 0);
  opt.traj = parse_traj(args.get("traj", "radial"));
  opt.noise = args.get_double("noise", 0.0);
  opt.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  opt.embed_dcf = args.has("embed-dcf");
  if (args.has("engine")) {
    opt.gridding.kind = core::parse_gridder_kind(args.get("engine"));
  }

  const auto rep = data::generate_synthetic(out, opt);
  std::printf("generated %s: %llu chunks, %llu samples, n=%lld, %d coils, "
              "traj %s%s%s\n",
              out.c_str(), static_cast<unsigned long long>(rep.chunks),
              static_cast<unsigned long long>(rep.samples),
              static_cast<long long>(opt.n), opt.coils,
              trajectory::to_string(opt.traj).c_str(),
              opt.embed_dcf ? ", dcf embedded" : "",
              opt.noise > 0.0 ? ", noisy" : "");
  return 0;
}

int cmd_inspect(const std::string& path) {
  data::DatasetReader reader(path);
  const auto& info = reader.info();
  std::printf("%s: JKSD v1, %dD, n=%lld, %d coils, source %s%s\n",
              path.c_str(), info.dim, static_cast<long long>(info.n),
              info.coils, source_name(info.source),
              info.has_dcf ? ", dcf embedded" : "");
  std::printf("header totals: %llu chunks, %llu samples%s\n",
              static_cast<unsigned long long>(info.chunk_count),
              static_cast<unsigned long long>(info.total_samples),
              info.chunk_count == 0 ? " (unknown — streamed file)" : "");
  data::Chunk c;
  while (reader.next(c)) {
    std::printf("  chunk %llu: m=%llu%s\n",
                static_cast<unsigned long long>(c.index),
                static_cast<unsigned long long>(c.m),
                c.dcf.empty() ? "" : ", dcf");
  }
  const auto& rep = reader.report();
  for (const auto& r : rep.rejects) {
    std::printf("  REJECT slot %llu @ byte %llu: %s\n",
                static_cast<unsigned long long>(r.ordinal),
                static_cast<unsigned long long>(r.offset), r.reason.c_str());
  }
  std::printf("read %llu chunks (%llu samples), %zu rejected\n",
              static_cast<unsigned long long>(rep.chunks_read),
              static_cast<unsigned long long>(rep.samples_read),
              rep.rejects.size());
  return rep.rejects.empty() ? 0 : 2;
}

int cmd_validate(const std::string& path) {
  data::DatasetInfo info;
  const auto rep = data::validate_dataset(path, &info);
  for (const auto& r : rep.rejects) {
    std::printf("REJECT slot %llu @ byte %llu: %s\n",
                static_cast<unsigned long long>(r.ordinal),
                static_cast<unsigned long long>(r.offset), r.reason.c_str());
  }
  const bool count_matches =
      info.chunk_count == 0 || rep.chunks_read == info.chunk_count;
  std::printf("%s: %llu chunks ok (%llu samples), %zu rejected%s\n",
              path.c_str(),
              static_cast<unsigned long long>(rep.chunks_read),
              static_cast<unsigned long long>(rep.samples_read),
              rep.rejects.size(),
              count_matches ? "" : " — header chunk count not met");
  return (rep.rejects.empty() && count_matches) ? 0 : 2;
}

void print_help(std::FILE* out) {
  std::fprintf(
      out,
      "usage: jigsaw_dataset <generate|inspect|validate> [--flags] [file]\n\n"
      "  generate --out file.jksd [--n 64] [--coils 8] [--chunks 4]\n"
      "           [--samples-per-chunk M] [--traj radial|...|propeller]\n"
      "           [--noise F] [--seed S] [--embed-dcf] [--engine E]\n"
      "  inspect  file.jksd   header + per-chunk listing (exit 2 on rejects)\n"
      "  validate file.jksd   checksum every chunk (exit 2 on rejects)\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_help(stderr);
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "--help" || cmd == "-h" || cmd == "help") {
    print_help(stdout);
    return 0;
  }
  const std::vector<std::string> flags = {
      "out",  "n",     "coils", "chunks", "samples-per-chunk",
      "traj", "noise", "seed",  "embed-dcf", "engine"};
  try {
    CliArgs args(argc - 1, argv + 1, flags);
    if (cmd == "generate") return cmd_generate(args);
    if (cmd == "inspect" || cmd == "validate") {
      if (args.positional().empty()) {
        std::fprintf(stderr, "%s: need a dataset path\n", cmd.c_str());
        return 2;
      }
      const std::string& path = args.positional().front();
      return cmd == "inspect" ? cmd_inspect(path) : cmd_validate(path);
    }
    std::fprintf(stderr, "unknown command: %s\n", cmd.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "jigsaw_dataset: %s\n", e.what());
    return 1;
  }
}
