// JKSD dataset subsystem tests: writer/reader round trips, the recovering
// parse (corruption costs chunks, never the file), the synthetic generator,
// coil-map estimation, and the end-to-end recon driver with its NRMSE gate.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/nufft.hpp"
#include "core/sense.hpp"
#include "data/dataset.hpp"
#include "data/driver.hpp"
#include "data/estimate.hpp"
#include "data/format.hpp"
#include "data/synthetic.hpp"
#include "trajectory/phantom.hpp"
#include "trajectory/trajectory.hpp"

namespace jigsaw::data {
namespace {

struct TestChunk {
  std::vector<double> coords;
  std::vector<c64> values;
  std::vector<double> dcf;
};

TestChunk random_chunk(int dim, int coils, std::uint64_t m, std::uint64_t seed,
                       bool with_dcf) {
  Rng rng(seed);
  TestChunk c;
  for (std::uint64_t j = 0; j < m * static_cast<std::uint64_t>(dim); ++j) {
    c.coords.push_back(rng.uniform(-0.5, 0.5));
  }
  for (std::uint64_t j = 0; j < m * static_cast<std::uint64_t>(coils); ++j) {
    c.values.emplace_back(rng.uniform(-1, 1), rng.uniform(-1, 1));
  }
  if (with_dcf) {
    for (std::uint64_t j = 0; j < m; ++j) c.dcf.push_back(rng.uniform(0, 2));
  }
  return c;
}

/// XOR `count` bytes starting at `offset` with 0xFF.
void flip_bytes(const std::string& path, std::uint64_t offset,
                std::size_t count) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.is_open());
  f.seekg(static_cast<std::streamoff>(offset));
  std::vector<char> buf(count);
  f.read(buf.data(), static_cast<std::streamsize>(count));
  ASSERT_EQ(f.gcount(), static_cast<std::streamsize>(count));
  for (char& b : buf) b = static_cast<char>(~b);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(buf.data(), static_cast<std::streamsize>(count));
}

/// Rewrite the file keeping only the first `len` bytes.
void truncate_file(const std::string& path, std::uint64_t len) {
  std::vector<char> bytes;
  {
    std::ifstream f(path, std::ios::binary);
    ASSERT_TRUE(f.is_open());
    bytes.assign(std::istreambuf_iterator<char>(f),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GE(bytes.size(), len);
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(len));
}

std::uint64_t chunk_disk_bytes(const DatasetInfo& info, std::uint64_t m,
                               bool dcf) {
  return sizeof(ChunkHeader) +
         chunk_payload_bytes(m, static_cast<std::uint32_t>(info.dim),
                             static_cast<std::uint32_t>(info.coils),
                             dcf ? kChunkHasDcf : 0u);
}

TEST(Dataset, RoundTrips2d) {
  const std::string path = "test_data_rt2d.jksd";
  DatasetInfo info;
  info.dim = 2;
  info.n = 64;
  info.coils = 3;
  info.source = Source::kSheppLogan;
  const std::uint64_t m = 500;
  std::vector<TestChunk> chunks;
  {
    DatasetWriter w(path, info);
    for (std::uint64_t i = 0; i < 3; ++i) {
      chunks.push_back(random_chunk(2, 3, m, 10 + i, /*with_dcf=*/false));
      w.add_chunk(i, chunks.back().coords, chunks.back().values);
    }
    w.close();
    EXPECT_EQ(w.chunks_written(), 3u);
  }
  DatasetReader r(path);
  EXPECT_EQ(r.info().dim, 2);
  EXPECT_EQ(r.info().n, 64);
  EXPECT_EQ(r.info().coils, 3);
  EXPECT_EQ(r.info().source, Source::kSheppLogan);
  EXPECT_FALSE(r.info().has_dcf);
  EXPECT_EQ(r.info().chunk_count, 3u);  // back-patched by close()
  EXPECT_EQ(r.info().total_samples, 3 * m);
  const auto back = r.read_all();
  ASSERT_EQ(back.size(), 3u);
  for (std::size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back[i].index, i);
    EXPECT_EQ(back[i].m, m);
    EXPECT_EQ(back[i].coords, chunks[i].coords);  // binary f64: exact
    EXPECT_EQ(back[i].values, chunks[i].values);
    EXPECT_TRUE(back[i].dcf.empty());
  }
  EXPECT_TRUE(r.report().rejects.empty());
  std::remove(path.c_str());
}

TEST(Dataset, RoundTrips3dWithDcf) {
  const std::string path = "test_data_rt3d.jksd";
  DatasetInfo info;
  info.dim = 3;
  info.n = 32;
  info.coils = 2;
  info.has_dcf = true;
  const std::uint64_t m = 200;
  const auto c0 = random_chunk(3, 2, m, 77, /*with_dcf=*/true);
  {
    DatasetWriter w(path, info);
    w.add_chunk(9, c0.coords, c0.values, c0.dcf);
  }  // destructor closes
  DatasetReader r(path);
  EXPECT_EQ(r.info().dim, 3);
  EXPECT_TRUE(r.info().has_dcf);
  Chunk back;
  ASSERT_TRUE(r.next(back));
  EXPECT_EQ(back.index, 9u);
  EXPECT_EQ(back.coords, c0.coords);
  EXPECT_EQ(back.values, c0.values);
  EXPECT_EQ(back.dcf, c0.dcf);
  // typed_coords reassembles the flat layout.
  const auto typed = back.typed_coords<3>();
  ASSERT_EQ(typed.size(), m);
  EXPECT_DOUBLE_EQ(typed[5][2], c0.coords[5 * 3 + 2]);
  // coil_values slices the coil-major block.
  const auto coil1 = back.coil_values(1);
  ASSERT_EQ(coil1.size(), m);
  EXPECT_EQ(coil1[0], c0.values[m]);
  EXPECT_FALSE(r.next(back));
  std::remove(path.c_str());
}

TEST(Dataset, WriterRejectsShapeMismatches) {
  const std::string path = "test_data_badshape.jksd";
  DatasetInfo info;
  info.dim = 2;
  info.n = 32;
  info.coils = 2;
  {
    DatasetWriter w(path, info);
    const auto c = random_chunk(2, 2, 50, 1, false);
    EXPECT_THROW(w.add_chunk(0, c.coords, std::vector<c64>(50)),  // 1 coil
                 std::invalid_argument);
    std::vector<double> odd_coords(101, 0.0);  // not a multiple of dim
    EXPECT_THROW(w.add_chunk(0, odd_coords, std::vector<c64>(100)),
                 std::invalid_argument);
    EXPECT_THROW(w.add_chunk(0, {}, {}), std::invalid_argument);  // empty
  }
  DatasetInfo dcf_info = info;
  dcf_info.has_dcf = true;
  {
    DatasetWriter w(path, dcf_info);
    const auto c = random_chunk(2, 2, 50, 1, false);
    EXPECT_THROW(w.add_chunk(0, c.coords, c.values),  // missing dcf
                 std::invalid_argument);
  }
  EXPECT_THROW(DatasetWriter(path, DatasetInfo{4, 32, 2}),  // dim 4
               std::invalid_argument);
  EXPECT_THROW(DatasetWriter(path, DatasetInfo{2, 1, 2}),  // n = 1
               std::invalid_argument);
  EXPECT_THROW(DatasetWriter(path, DatasetInfo{2, 32, 0}),  // no coils
               std::invalid_argument);
  std::remove(path.c_str());
}

TEST(Dataset, FileHeaderProblemsAreFatal) {
  const std::string path = "test_data_badheader.jksd";
  EXPECT_THROW(DatasetReader{"no_such_dataset_zzz.jksd"}, std::runtime_error);
  {
    std::ofstream f(path, std::ios::binary);
    f << "short";
  }
  EXPECT_THROW(DatasetReader{path}, std::runtime_error);
  // A full-size header with wrong magic.
  {
    std::ofstream f(path, std::ios::binary);
    const std::vector<char> junk(sizeof(FileHeader), 'x');
    f.write(junk.data(), static_cast<std::streamsize>(junk.size()));
  }
  EXPECT_THROW(DatasetReader{path}, std::runtime_error);
  // A valid file whose header checksum byte is flipped.
  {
    DatasetInfo info;
    info.dim = 2;
    info.n = 32;
    info.coils = 1;
    DatasetWriter w(path, info);
    const auto c = random_chunk(2, 1, 10, 3, false);
    w.add_chunk(0, c.coords, c.values);
    w.close();
  }
  flip_bytes(path, 8, 1);  // inside the checksummed header region
  EXPECT_THROW(DatasetReader{path}, std::runtime_error);
  std::remove(path.c_str());
}

// The headline recovery property: one corrupted chunk payload is rejected
// with a reason; every other chunk still reads, in order, with exact data.
TEST(Dataset, CorruptPayloadCostsOneChunkNotTheFile) {
  const std::string path = "test_data_corrupt.jksd";
  DatasetInfo info;
  info.dim = 2;
  info.n = 64;
  info.coils = 2;
  const std::uint64_t m = 300;
  std::vector<TestChunk> chunks;
  {
    DatasetWriter w(path, info);
    for (std::uint64_t i = 0; i < 3; ++i) {
      chunks.push_back(random_chunk(2, 2, m, 20 + i, false));
      w.add_chunk(i, chunks.back().coords, chunks.back().values);
    }
    w.close();
  }
  // Flip bytes in the middle of chunk 1's payload (header stays intact, so
  // the stream stays aligned and the checksum catches the damage).
  const std::uint64_t per_chunk = chunk_disk_bytes(info, m, false);
  const std::uint64_t target =
      sizeof(FileHeader) + per_chunk + sizeof(ChunkHeader) + 64;
  flip_bytes(path, target, 32);

  DatasetReader r(path);
  const auto back = r.read_all();
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].index, 0u);
  EXPECT_EQ(back[1].index, 2u);
  EXPECT_EQ(back[0].values, chunks[0].values);
  EXPECT_EQ(back[1].values, chunks[2].values);
  const auto& rejects = r.report().rejects;
  ASSERT_EQ(rejects.size(), 1u);
  EXPECT_EQ(rejects[0].ordinal, 1u);  // 0-based chunk slot
  EXPECT_EQ(rejects[0].offset, sizeof(FileHeader) + per_chunk);
  EXPECT_NE(rejects[0].reason.find("checksum"), std::string::npos)
      << rejects[0].reason;
  std::remove(path.c_str());
}

// A trashed chunk *header* forces a byte-scan resync to the next "CHNK"
// magic; the chunks after the damage still read.
TEST(Dataset, BadChunkMagicResyncsToNextChunk) {
  const std::string path = "test_data_badmagic.jksd";
  DatasetInfo info;
  info.dim = 2;
  info.n = 64;
  info.coils = 1;
  const std::uint64_t m = 300;
  std::vector<TestChunk> chunks;
  {
    DatasetWriter w(path, info);
    for (std::uint64_t i = 0; i < 3; ++i) {
      chunks.push_back(random_chunk(2, 1, m, 30 + i, false));
      w.add_chunk(i, chunks.back().coords, chunks.back().values);
    }
    w.close();
  }
  const std::uint64_t per_chunk = chunk_disk_bytes(info, m, false);
  flip_bytes(path, sizeof(FileHeader) + per_chunk, 4);  // chunk 1's magic

  DatasetReader r(path);
  const auto back = r.read_all();
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].index, 0u);
  EXPECT_EQ(back[1].index, 2u);
  EXPECT_EQ(back[1].values, chunks[2].values);
  ASSERT_GE(r.report().rejects.size(), 1u);
  EXPECT_NE(r.report().rejects[0].reason.find("magic"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Dataset, TruncatedTailIsRejectedNotFatal) {
  const std::string path = "test_data_trunc.jksd";
  DatasetInfo info;
  info.dim = 2;
  info.n = 64;
  info.coils = 1;
  const std::uint64_t m = 300;
  {
    DatasetWriter w(path, info);
    for (std::uint64_t i = 0; i < 2; ++i) {
      const auto c = random_chunk(2, 1, m, 40 + i, false);
      w.add_chunk(i, c.coords, c.values);
    }
    w.close();
  }
  const std::uint64_t per_chunk = chunk_disk_bytes(info, m, false);
  // Keep chunk 0 and half of chunk 1's payload.
  truncate_file(path, sizeof(FileHeader) + per_chunk + per_chunk / 2);

  DatasetInfo seen;
  const auto rep = validate_dataset(path, &seen);
  EXPECT_EQ(rep.chunks_read, 1u);
  ASSERT_EQ(rep.rejects.size(), 1u);
  EXPECT_NE(rep.rejects[0].reason.find("truncated"), std::string::npos);
  // The header still advertises 2 chunks — the shortfall is how a consumer
  // knows the tail is missing (jigsaw_dataset validate exits 2 on this).
  EXPECT_EQ(seen.chunk_count, 2u);
  std::remove(path.c_str());
}

TEST(Synthetic, IsDeterministicForASeed) {
  const std::string a = "test_data_synth_a.jksd";
  const std::string b = "test_data_synth_b.jksd";
  SyntheticOptions opt;
  opt.n = 32;
  opt.coils = 3;
  opt.chunks = 2;
  opt.samples_per_chunk = 600;
  opt.noise = 0.02;
  const auto ra = generate_synthetic(a, opt);
  const auto rb = generate_synthetic(b, opt);
  EXPECT_EQ(ra.chunks, 2u);
  EXPECT_EQ(ra.samples, rb.samples);
  std::ifstream fa(a, std::ios::binary), fb(b, std::ios::binary);
  const std::string ba(std::istreambuf_iterator<char>(fa), {});
  const std::string bb(std::istreambuf_iterator<char>(fb), {});
  EXPECT_EQ(ba, bb) << "same options must produce byte-identical files";
  ASSERT_FALSE(ba.empty());
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(Synthetic, EmbedsDcfWhenAsked) {
  const std::string path = "test_data_synth_dcf.jksd";
  SyntheticOptions opt;
  opt.n = 32;
  opt.coils = 2;
  opt.chunks = 2;
  opt.samples_per_chunk = 500;
  opt.embed_dcf = true;
  generate_synthetic(path, opt);
  DatasetReader r(path);
  EXPECT_TRUE(r.info().has_dcf);
  EXPECT_EQ(r.info().source, Source::kSheppLogan);
  Chunk c;
  while (r.next(c)) {
    ASSERT_EQ(c.dcf.size(), c.m);
    for (const double w : c.dcf) EXPECT_GT(w, 0.0);
  }
  EXPECT_TRUE(r.report().rejects.empty());
  std::remove(path.c_str());
}

TEST(Estimate, CoilMapsApproachGroundTruthAndRssIsNormalized) {
  const std::int64_t n = 48;
  const int coils = 4;
  auto coords = trajectory::make_2d(trajectory::TrajectoryType::Radial, 4000);
  core::NufftPlan<2> plan(n, coords, core::GridderOptions{});
  const auto truth = core::make_birdcage_maps(n, coils);
  const auto image = trajectory::rasterize(trajectory::shepp_logan(),
                                           static_cast<int>(n));
  std::vector<c64> cimage(image.begin(), image.end());
  const auto y = core::simulate_multicoil(plan, truth, cimage);

  const auto est = estimate_coil_maps(plan, y);
  ASSERT_EQ(est.coils, coils);
  ASSERT_EQ(est.n, n);

  // Where the object is bright, the estimated maps must correlate with the
  // ground-truth birdcage maps (up to the RSS normalization, which the
  // truth maps approximately satisfy: sum_c |S_c|^2 ~ 1).
  double num = 0.0, den_a = 0.0, den_b = 0.0;
  for (std::size_t p = 0; p < image.size(); ++p) {
    if (image[p] < 0.5) continue;  // dark pixels are unconstrained
    for (int c = 0; c < coils; ++c) {
      const c64 a = est.map(c)[p];
      const c64 b = truth.map(c)[p];
      num += (a * std::conj(b)).real();
      den_a += std::norm(a);
      den_b += std::norm(b);
    }
  }
  const double corr = num / std::sqrt(den_a * den_b);
  // The low-pass estimate is deliberately smooth; ~0.93-0.94 observed.
  EXPECT_GT(corr, 0.90) << "estimated maps decorrelated from ground truth";

  // RSS combine of the ground-truth-map coil images ~ the object.
  std::vector<std::vector<c64>> coil_imgs;
  for (int c = 0; c < coils; ++c) {
    std::vector<c64> ci(image.size());
    for (std::size_t p = 0; p < image.size(); ++p) {
      ci[p] = truth.map(c)[p] * cimage[p];
    }
    coil_imgs.push_back(std::move(ci));
  }
  const auto rss = rss_combine(coil_imgs);
  double err = 0.0, ref = 0.0;
  for (std::size_t p = 0; p < image.size(); ++p) {
    err += (rss[p] - image[p]) * (rss[p] - image[p]);
    ref += image[p] * image[p];
  }
  EXPECT_LT(std::sqrt(err / ref), 0.15);
}

// recon_dataset's weighted solve is cg_sense with DCF weights. It must equal
// CG on  sum_c S_c^H A^H W A S_c x = sum_c S_c^H A^H W y_c  written out by
// hand with the same operation order, bit for bit.
TEST(Driver, WeightedCgSenseMatchesHandRolledWeightedCg) {
  const std::int64_t n = 32;
  const int coils = 2;
  auto coords = trajectory::make_2d(trajectory::TrajectoryType::Radial, 1500);
  core::NufftPlan<2> plan(n, coords, core::GridderOptions{});
  const auto maps = core::make_birdcage_maps(n, coils);
  const auto image = trajectory::rasterize(trajectory::shepp_logan(),
                                           static_cast<int>(n));
  const auto y = core::simulate_multicoil(
      plan, maps, std::vector<c64>(image.begin(), image.end()));
  const auto w = core::pipe_menon_weights<2>(plan.gridder(), plan.coords());
  const std::size_t pixels = image.size();

  const auto weigh = [&](std::vector<c64> v) {
    for (std::size_t j = 0; j < v.size(); ++j) v[j] *= w[j];
    return v;
  };
  std::vector<c64> b(pixels);
  for (int c = 0; c < coils; ++c) {
    const auto img = plan.adjoint(weigh(y[c]));
    for (std::size_t p = 0; p < pixels; ++p) {
      b[p] += std::conj(maps.map(c)[p]) * img[p];
    }
  }
  const auto gram = [&](const std::vector<c64>& x) {
    std::vector<c64> out(pixels), sx(pixels);
    for (int c = 0; c < coils; ++c) {
      for (std::size_t p = 0; p < pixels; ++p) sx[p] = maps.map(c)[p] * x[p];
      const auto img = plan.adjoint(weigh(plan.forward(sx)));
      for (std::size_t p = 0; p < pixels; ++p) {
        out[p] += std::conj(maps.map(c)[p]) * img[p];
      }
    }
    return out;
  };
  std::vector<c64> expected(pixels);
  const auto cg_ref = core::conjugate_gradient(gram, b, expected, 5, 0.0);

  core::CgResult cg;
  const auto got = core::cg_sense(plan, maps, y, 5, 0.0, &cg, 1, Deadline(),
                                  nullptr, w);
  EXPECT_EQ(cg.iterations, cg_ref.iterations);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t p = 0; p < pixels; ++p) {
    ASSERT_EQ(got[p], expected[p]) << "pixel " << p;
  }
  // Unweighted is a different problem: the weights are really applied.
  EXPECT_NE(core::cg_sense(plan, maps, y, 5, 0.0), got);
}

TEST(Driver, ParsesDcfModes) {
  EXPECT_EQ(parse_dcf_mode("none"), DcfMode::kNone);
  EXPECT_EQ(parse_dcf_mode("embedded"), DcfMode::kEmbedded);
  EXPECT_EQ(parse_dcf_mode("pipe-menon"), DcfMode::kPipeMenon);
  EXPECT_EQ(parse_dcf_mode("pipe"), DcfMode::kPipeMenon);
  EXPECT_THROW(parse_dcf_mode("bogus"), std::invalid_argument);
  EXPECT_EQ(to_string(DcfMode::kPipeMenon), "pipe-menon");
}

// End-to-end NRMSE gate: generate -> ingest -> DCF -> estimated coil maps
// -> recon must land within the quality bound on both solver paths.
// (Empirically: adjoint+RSS ~ 0.22, CG ~ 0.17; unweighted adjoint ~ 0.8.)
TEST(Driver, ReconDatasetMeetsNrmseGate) {
  const std::string path = "test_data_recon.jksd";
  SyntheticOptions gen;
  gen.n = 48;
  gen.coils = 4;
  gen.chunks = 2;
  gen.samples_per_chunk = 4000;
  generate_synthetic(path, gen);

  ReconDatasetOptions adj;
  adj.dcf = DcfMode::kPipeMenon;
  adj.iters = 0;
  const auto r_adj = recon_dataset(path, adj);
  ASSERT_EQ(r_adj.chunks.size(), 2u);
  EXPECT_TRUE(r_adj.report.rejects.empty());
  for (const auto& c : r_adj.chunks) {
    EXPECT_TRUE(c.dcf_applied);
    EXPECT_EQ(c.iterations, 0);
    EXPECT_EQ(c.image.size(), static_cast<std::size_t>(48 * 48));
  }
  EXPECT_GT(r_adj.mean_nrmse, 0.0);
  EXPECT_LT(r_adj.mean_nrmse, 0.35);

  ReconDatasetOptions cg = adj;
  cg.iters = 6;
  const auto r_cg = recon_dataset(path, cg);
  EXPECT_LT(r_cg.mean_nrmse, 0.35);
  for (const auto& c : r_cg.chunks) EXPECT_GT(c.iterations, 0);

  // Weighting must matter: the unweighted adjoint is far worse.
  ReconDatasetOptions none = adj;
  none.dcf = DcfMode::kNone;
  const auto r_none = recon_dataset(path, none);
  EXPECT_GT(r_none.mean_nrmse, r_adj.mean_nrmse * 1.5);
  std::remove(path.c_str());
}

// The acceptance scenario: a dataset with one corrupted chunk reconstructs
// from the survivors and reports the reject — no crash, no empty result.
TEST(Driver, ReconDatasetSurvivesCorruptChunk) {
  const std::string path = "test_data_recon_corrupt.jksd";
  SyntheticOptions gen;
  gen.n = 48;
  gen.coils = 2;
  gen.chunks = 3;
  gen.samples_per_chunk = 3000;
  generate_synthetic(path, gen);

  DatasetInfo info;
  {
    DatasetReader r(path);
    info = r.info();
  }
  const std::uint64_t per_chunk =
      chunk_disk_bytes(info, info.total_samples / info.chunk_count, false);
  flip_bytes(path, sizeof(FileHeader) + per_chunk + sizeof(ChunkHeader) + 128,
             16);

  ReconDatasetOptions opt;
  opt.dcf = DcfMode::kPipeMenon;
  const auto result = recon_dataset(path, opt);
  ASSERT_EQ(result.chunks.size(), 2u);
  ASSERT_EQ(result.report.rejects.size(), 1u);
  EXPECT_EQ(result.report.rejects[0].ordinal, 1u);
  EXPECT_LT(result.mean_nrmse, 0.35);
  std::remove(path.c_str());
}

TEST(Driver, ReconDatasetEmbeddedDcfPath) {
  const std::string path = "test_data_recon_embedded.jksd";
  SyntheticOptions gen;
  gen.n = 48;
  gen.coils = 2;
  gen.chunks = 1;
  gen.samples_per_chunk = 3000;
  gen.embed_dcf = true;
  generate_synthetic(path, gen);

  ReconDatasetOptions opt;
  opt.dcf = DcfMode::kEmbedded;
  const auto result = recon_dataset(path, opt);
  ASSERT_EQ(result.chunks.size(), 1u);
  EXPECT_TRUE(result.chunks[0].dcf_applied);
  EXPECT_LT(result.mean_nrmse, 0.35);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace jigsaw::data
