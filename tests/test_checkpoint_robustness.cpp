// Checkpoint/restart robustness suite: format-v2 integrity (bounded reads,
// total checksum coverage, atomic writes), rank-count-changing restarts,
// the strict solver-state schema, auto-checkpoint rotation with
// fall-back-past-corrupt recovery, fault injection (file corruption and a
// rank killed mid-campaign), and the distributed invariant validator.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>

#include "apps/fields.hpp"
#include "chns/checkpoint.hpp"
#include "fem/matvec.hpp"
#include "io/checkpoint.hpp"
#include "octree/balance.hpp"
#include "faultinject.hpp"
#include "validate/invariants.hpp"

namespace pt {
namespace {

namespace fs = std::filesystem;

template <int DIM>
OctList<DIM> interfaceTree(Level coarse, Level fine) {
  OctList<DIM> tree;
  buildTree<DIM>(
      Octant<DIM>::root(),
      [=](const Octant<DIM>& o) {
        auto c = o.centerCoords();
        Real r2 = 0;
        for (int d = 0; d < DIM; ++d) r2 += (c[d] - 0.5) * (c[d] - 0.5);
        return std::abs(std::sqrt(r2) - 0.3) < 2.0 * o.physSize() ? fine
                                                                  : coarse;
      },
      tree);
  return balanceTree(tree);
}

/// Fresh scratch directory named after the running test.
std::string scratchDir() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string dir = std::string("/tmp/pt_robust_") + info->test_suite_name() +
                    "_" + info->name();
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// A small checkpoint with one nodal field, one cell field, and metadata.
io::Checkpoint<2> smallCheckpoint(int nranks, Level level) {
  sim::SimComm comm(nranks, sim::Machine::loopback());
  auto dt = DistTree<2>::fromGlobal(comm, uniformTree<2>(level));
  auto mesh = Mesh<2>::build(comm, dt);
  Field phi = mesh.makeField(1);
  fem::setByPosition<2>(mesh, phi, 1, [](const VecN<2>& x, Real* v) {
    v[0] = std::sin(4 * x[0]) * std::cos(2 * x[1]);
  });
  sim::PerRank<std::vector<Real>> cn(nranks);
  for (int r = 0; r < nranks; ++r) {
    cn[r].resize(dt.localOf(r).size());
    for (std::size_t e = 0; e < cn[r].size(); ++e) cn[r][e] = 0.01 * (e % 5);
  }
  auto ck = io::makeCheckpoint<2>(dt, mesh, {{"phi", {&phi, 1}}},
                                  {{"cn", &cn}});
  ck.meta.emplace_back("steps", 42);
  return ck;
}

chns::ChnsOptions<2> campaignOptions() {
  chns::ChnsOptions<2> opt;
  opt.params.Re = 50;
  opt.params.We = 5;
  opt.params.Pe = 50;
  opt.params.Cn = 0.04;
  opt.dt = 2e-3;
  opt.remeshEvery = 0;  // fixed mesh: trajectories bitwise comparable
  return opt;
}

Real dropIc(const VecN<2>& x, Real cn) {
  return apps::dropPhi<2>(x, VecN<2>{{0.5, 0.5}}, 0.25, cn);
}

std::string readAll(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

// ---------------------------------------------------------------------------
// Format v2 integrity
// ---------------------------------------------------------------------------

TEST(CheckpointV2, RoundTripWithMeta) {
  auto ck = smallCheckpoint(3, 3);
  const std::string dir = scratchDir();
  const std::string path = dir + "/ck.bin";
  io::saveCheckpoint<2>(path, ck);
  auto ck2 = io::loadCheckpointFile<2>(path);
  EXPECT_EQ(ck2.writerRanks, 3);
  ASSERT_EQ(ck2.leaves.size(), ck.leaves.size());
  EXPECT_TRUE(std::equal(ck.leaves.begin(), ck.leaves.end(),
                         ck2.leaves.begin()));
  ASSERT_EQ(ck2.nodal.size(), 1u);
  EXPECT_EQ(ck2.nodal[0].name, "phi");
  EXPECT_EQ(ck2.nodal[0].values, ck.nodal[0].values);
  ASSERT_EQ(ck2.cell.size(), 1u);
  EXPECT_EQ(ck2.cell[0].values, ck.cell[0].values);
  EXPECT_EQ(ck2.metaOr("steps", -1), 42);
  EXPECT_EQ(ck2.metaOr("absent", -7), -7);
  fs::remove_all(dir);
}

TEST(CheckpointV2, RankCountMatrixPreservesCellAlignment) {
  // P_old -> P_new in {4->2, 2->2, 2->5}: per-leaf cell values and nodal
  // values by key must survive bitwise in every direction.
  const std::pair<int, int> cases[] = {{4, 2}, {2, 2}, {2, 5}};
  for (const auto& [pOld, pNew] : cases) {
    SCOPED_TRACE("ranks " + std::to_string(pOld) + " -> " +
                 std::to_string(pNew));
    sim::SimComm commA(pOld, sim::Machine::loopback());
    auto dtA = DistTree<2>::fromGlobal(commA, interfaceTree<2>(2, 4));
    auto meshA = Mesh<2>::build(commA, dtA);
    Field phiA = meshA.makeField(1);
    fem::setByPosition<2>(meshA, phiA, 1, [](const VecN<2>& x, Real* v) {
      v[0] = std::sin(7 * x[0]) + std::cos(5 * x[1]);
    });
    // Tag each leaf with its global index, so alignment errors are visible.
    sim::PerRank<std::vector<Real>> tag(pOld);
    Real id = 0;
    for (int r = 0; r < pOld; ++r) {
      tag[r].resize(dtA.localOf(r).size());
      for (auto& v : tag[r]) v = id++;
    }
    auto ck = io::makeCheckpoint<2>(dtA, meshA, {{"phi", {&phiA, 1}}},
                                    {{"tag", &tag}});
    sim::SimComm commB(pNew, sim::Machine::loopback());
    auto restored = io::restoreCheckpoint<2>(commB, ck, true);
    EXPECT_EQ(restored.activeRanks, std::min(pOld, pNew));
    EXPECT_TRUE(restored.tree.globallyLinear());
    // Every rank holds leaves after the repartition, and the i-th global
    // leaf still carries tag i — the tree is the authoritative layout.
    Real expect = 0;
    for (int r = 0; r < pNew; ++r) {
      EXPECT_FALSE(restored.tree.localOf(r).empty());
      ASSERT_EQ(restored.cell[0].second[r].size(),
                restored.tree.localOf(r).size());
      for (Real v : restored.cell[0].second[r]) EXPECT_EQ(v, expect++);
    }
    EXPECT_EQ(expect, static_cast<Real>(ck.leaves.size()));
    // Nodal values bitwise by key.
    std::map<NodeKey<2>, Real, NodeKeyLess<2>> ref;
    for (int r = 0; r < pOld; ++r) {
      const auto& rm = meshA.rank(r);
      for (std::size_t li = 0; li < rm.nNodes(); ++li)
        ref[rm.nodeKeys[li]] = phiA[r][li];
    }
    for (int r = 0; r < pNew; ++r) {
      const auto& rm = restored.mesh->rank(r);
      for (std::size_t li = 0; li < rm.nNodes(); ++li) {
        auto it = ref.find(rm.nodeKeys[li]);
        ASSERT_TRUE(it != ref.end());
        EXPECT_EQ(restored.nodal[0].second[r][li], it->second);
      }
    }
  }
}

TEST(CheckpointV2, EveryTruncationYieldsTypedError) {
  const std::string dir = scratchDir();
  const std::string path = dir + "/ck.bin";
  io::saveCheckpoint<2>(path, smallCheckpoint(2, 2));
  const std::uint64_t full = support::fileSize(path);
  const std::string intact = readAll(path);
  for (std::uint64_t len = 0; len < full; ++len) {
    std::ofstream(path, std::ios::binary) << intact;  // restore
    support::truncateFileTo(path, len);
    auto lr = io::tryLoadCheckpointFile<2>(path);
    ASSERT_FALSE(lr.status.ok()) << "truncation to " << len << " accepted";
  }
  fs::remove_all(dir);
}

TEST(CheckpointV2, AnySingleBitFlipDetected) {
  // Checksum coverage is total: flipping one bit at ANY byte offset must
  // produce a typed load failure, never a silently-wrong checkpoint.
  const std::string dir = scratchDir();
  const std::string path = dir + "/ck.bin";
  io::saveCheckpoint<2>(path, smallCheckpoint(2, 2));
  const std::uint64_t full = support::fileSize(path);
  const std::string intact = readAll(path);
  for (std::uint64_t off = 0; off < full; ++off) {
    std::ofstream(path, std::ios::binary) << intact;
    support::flipBitInFile(path, off, static_cast<int>(off % 8));
    auto lr = io::tryLoadCheckpointFile<2>(path);
    ASSERT_FALSE(lr.status.ok())
        << "bit flip at byte " << off << " went undetected";
  }
  fs::remove_all(dir);
}

TEST(CheckpointV2, ZeroedSectionDetected) {
  const std::string dir = scratchDir();
  const std::string path = dir + "/ck.bin";
  io::saveCheckpoint<2>(path, smallCheckpoint(2, 3));
  // Zero 64 bytes in the middle of the file (inside some section payload).
  const std::uint64_t full = support::fileSize(path);
  support::zeroRangeInFile(path, full / 2, 64);
  auto lr = io::tryLoadCheckpointFile<2>(path);
  ASSERT_FALSE(lr.status.ok());
  fs::remove_all(dir);
}

TEST(CheckpointV2, V1MagicIsTypedBadMagic) {
  // The retired unchecksummed format v1 ("PHTREE1") no longer loads.
  const std::string dir = scratchDir();
  const std::string path = dir + "/v1.bin";
  {
    const std::uint64_t v1Magic = 0x50485452454531ull;
    std::ofstream os(path, std::ios::binary);
    os.write(reinterpret_cast<const char*>(&v1Magic), 8);
  }
  auto lr = io::tryLoadCheckpointFile<2>(path);
  EXPECT_EQ(lr.status.code, io::CkCode::kBadMagic);
  EXPECT_THROW(io::loadCheckpointFile<2>(path), io::CheckpointError);
  fs::remove_all(dir);
}

/// A format-v2 file with a valid header CRC over its first 40 bytes and a
/// valid CRC on every section, so parsing reaches the payload count checks.
void writeCraftedV2(const std::string& path, std::uint64_t nSections,
                    const std::vector<std::pair<std::uint64_t, std::string>>&
                        sections) {
  io::ckdetail::Buf b;
  b.u64(io::kCkMagicV2);
  b.u64(io::kCkVersion);
  b.u64(2);  // DIM
  b.u64(1);  // writerRanks
  b.u64(nSections);
  b.u64(io::ckdetail::crc32(b.b.data(), b.b.size()));
  for (const auto& [tag, payload] : sections) {
    const std::string name = tag == io::ckdetail::kSecNodal ? "phi" : "";
    b.u64(tag);
    b.str(name);
    b.u64(payload.size());
    b.u64(io::ckdetail::sectionCrc(tag, name, payload.data(), payload.size()));
    b.b += payload;
  }
  std::ofstream os(path, std::ios::binary);
  os.write(b.b.data(), static_cast<std::streamsize>(b.b.size()));
}

TEST(CheckpointV2, HugeDeclaredCountsAreBoundedNotAllocated) {
  // The historical bug: loadCheckpointFile resized vectors straight from
  // on-disk counts, so a corrupt count meant bad_alloc/OOM. Craft
  // checksum-valid v2 files declaring ~2^60 elements; each must reach its
  // count bound and return a typed error fast.
  const std::string dir = scratchDir();
  const std::uint64_t huge = 1ull << 60;
  auto payload = [](std::initializer_list<std::uint64_t> words) {
    io::ckdetail::Buf b;
    for (std::uint64_t w : words) b.u64(w);
    return b.b;
  };
  auto expectBoundedCount = [](const std::string& path,
                               const std::string& what) {
    auto lr = io::tryLoadCheckpointFile<2>(path);
    EXPECT_EQ(lr.status.code, io::CkCode::kBadCount) << lr.status.str();
    EXPECT_NE(lr.status.detail.find(what + " exceeds available bytes"),
              std::string::npos)
        << lr.status.str();
  };
  writeCraftedV2(dir + "/huge_leaves.bin", 1,
                 {{io::ckdetail::kSecLeaves, payload({huge})}});
  expectBoundedCount(dir + "/huge_leaves.bin", "leaf count");
  // Huge nodal key count behind a valid (empty) leaves section.
  writeCraftedV2(dir + "/huge_nodal.bin", 2,
                 {{io::ckdetail::kSecLeaves, payload({0})},
                  {io::ckdetail::kSecNodal, payload({1, huge})}});
  expectBoundedCount(dir + "/huge_nodal.bin", "node key count");
  writeCraftedV2(dir + "/huge_sections.bin", huge,
                 {{io::ckdetail::kSecLeaves, payload({0})}});
  expectBoundedCount(dir + "/huge_sections.bin", "section count");
  fs::remove_all(dir);
}

TEST(CheckpointV2, SaveIsAtomicAndTypedOnFailure) {
  const std::string dir = scratchDir();
  const std::string path = dir + "/ck.bin";
  auto ck = smallCheckpoint(2, 2);
  // Unwritable destination: typed error, no file appears.
  try {
    io::saveCheckpoint<2>(dir + "/missing-subdir/ck.bin", ck);
    FAIL() << "expected CheckpointError";
  } catch (const io::CheckpointError& e) {
    EXPECT_EQ(e.code(), io::CkCode::kOpenFailed);
  }
  EXPECT_FALSE(fs::exists(dir + "/missing-subdir"));
  // Successful save leaves no .tmp behind and the file loads.
  io::saveCheckpoint<2>(path, ck);
  EXPECT_TRUE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  EXPECT_TRUE(io::tryLoadCheckpointFile<2>(path).status.ok());
  // Overwrite keeps the file valid.
  io::saveCheckpoint<2>(path, ck);
  EXPECT_TRUE(io::tryLoadCheckpointFile<2>(path).status.ok());
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Strict solver-state schema
// ---------------------------------------------------------------------------

TEST(SolverSchema, RejectsMissingUnknownMisshapenAndDuplicateFields) {
  sim::SimComm comm(2, sim::Machine::loopback());
  auto dt = DistTree<2>::fromGlobal(comm, uniformTree<2>(2));
  auto mesh = Mesh<2>::build(comm, dt);
  Field s1 = mesh.makeField(1), s2 = mesh.makeField(1), s3 = mesh.makeField(1);
  Field v = mesh.makeField(2);
  sim::PerRank<std::vector<Real>> cn(2);
  for (int r = 0; r < 2; ++r) cn[r].assign(dt.localOf(r).size(), 0.04);
  auto full = io::makeCheckpoint<2>(
      dt, mesh,
      {{"phi", {&s1, 1}}, {"mu", {&s2, 1}}, {"vel", {&v, 2}}, {"p", {&s3, 1}}},
      {{"cn", &cn}});
  EXPECT_TRUE(chns::solverStateSchema<2>(full).ok());

  {  // missing mu
    auto ck = full;
    ck.nodal.erase(ck.nodal.begin() + 1);
    EXPECT_EQ(chns::solverStateSchema<2>(ck).code, io::CkCode::kMissingField);
  }
  {  // unknown nodal field
    auto ck = full;
    auto junk = ck.nodal[0];
    junk.name = "junk";
    ck.nodal.push_back(junk);
    EXPECT_EQ(chns::solverStateSchema<2>(ck).code, io::CkCode::kUnknownField);
  }
  {  // wrong component count on vel
    auto ck = io::makeCheckpoint<2>(
        dt, mesh,
        {{"phi", {&s1, 1}}, {"mu", {&s2, 1}}, {"vel", {&s3, 1}},
         {"p", {&s3, 1}}},
        {{"cn", &cn}});
    EXPECT_EQ(chns::solverStateSchema<2>(ck).code,
              io::CkCode::kFieldShapeMismatch);
  }
  {  // duplicate field
    auto ck = full;
    ck.nodal.push_back(ck.nodal[0]);
    EXPECT_EQ(chns::solverStateSchema<2>(ck).code,
              io::CkCode::kInvalidContent);
  }
  {  // missing cell field
    auto ck = full;
    ck.cell.clear();
    EXPECT_EQ(chns::solverStateSchema<2>(ck).code, io::CkCode::kMissingField);
  }
  {  // unknown cell field
    auto ck = full;
    ck.cell[0].name = "mystery";
    EXPECT_EQ(chns::solverStateSchema<2>(ck).code, io::CkCode::kUnknownField);
  }
  // restoreSolverState surfaces the schema error as a typed exception.
  {
    auto ck = full;
    ck.nodal.erase(ck.nodal.begin());
    try {
      chns::restoreSolverState<2>(comm, ck, campaignOptions());
      FAIL() << "expected CheckpointError";
    } catch (const io::CheckpointError& e) {
      EXPECT_EQ(e.code(), io::CkCode::kMissingField);
    }
  }
}

// ---------------------------------------------------------------------------
// Auto-checkpoint rotation + recovery
// ---------------------------------------------------------------------------

TEST(AutoCheckpoint, RotationKeepsNewestN) {
  const std::string dir = scratchDir();
  sim::SimComm comm(2, sim::Machine::loopback());
  auto opt = campaignOptions();
  chns::ChnsSolver<2> s(comm, DistTree<2>::fromGlobal(comm, uniformTree<2>(3)),
                        opt);
  s.setInitialCondition([&](const VecN<2>& x) {
    return dropIc(x, opt.params.Cn);
  });
  chns::enableAutoCheckpoint(s, dir, /*every=*/1, /*keep=*/2);
  for (int i = 0; i < 5; ++i) s.step();
  auto files = chns::listCheckpoints(dir);
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(files[0].first, 4);
  EXPECT_EQ(files[1].first, 5);
  // The newest file records its step count and loads cleanly.
  auto ck = io::loadCheckpointFile<2>(files[1].second);
  EXPECT_EQ(ck.metaOr("steps", -1), 5);
  EXPECT_TRUE(chns::solverStateSchema<2>(ck).ok());
  fs::remove_all(dir);
}

TEST(AutoCheckpoint, ResumeFallsBackPastCorruptNewest) {
  const std::string dir = scratchDir();
  auto opt = campaignOptions();
  {
    sim::SimComm comm(2, sim::Machine::loopback());
    chns::ChnsSolver<2> s(comm,
                          DistTree<2>::fromGlobal(comm, uniformTree<2>(3)),
                          opt);
    s.setInitialCondition([&](const VecN<2>& x) {
      return dropIc(x, opt.params.Cn);
    });
    chns::enableAutoCheckpoint(s, dir, 1, 3);
    for (int i = 0; i < 3; ++i) s.step();
  }
  auto files = chns::listCheckpoints(dir);
  ASSERT_EQ(files.size(), 3u);
  // Corrupt the newest checkpoint; resume must fall back to step 2.
  support::flipBitInFile(files[2].second,
                         support::fileSize(files[2].second) / 2, 3);
  {
    sim::SimComm comm(2, sim::Machine::loopback());
    chns::ResumeInfo info;
    auto s = chns::resumeFromLatestValid<2>(comm, dir, opt, &info);
    EXPECT_EQ(info.step, 2);
    EXPECT_EQ(info.skippedCorrupt, 1);
    EXPECT_EQ(s.stepsTaken(), 2);
  }
  // Corrupt everything: typed kNoValidCheckpoint, no crash.
  for (const auto& [step, path] : files)
    support::truncateFileTo(path, support::fileSize(path) / 2);
  {
    sim::SimComm comm(2, sim::Machine::loopback());
    try {
      chns::resumeFromLatestValid<2>(comm, dir, opt);
      FAIL() << "expected CheckpointError";
    } catch (const io::CheckpointError& e) {
      EXPECT_EQ(e.code(), io::CkCode::kNoValidCheckpoint);
    }
  }
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

TEST(FaultInjection, ScheduledRankFailureFiresOnceAtCountdown) {
  sim::SimComm comm(3, sim::Machine::loopback());
  comm.scheduleRankFailure(/*rank=*/1, /*afterCollectives=*/2);
  sim::PerRank<int> ones(3, 1);
  EXPECT_EQ(comm.allreduceSum(ones), 3);  // collective 1
  EXPECT_EQ(comm.allreduceSum(ones), 3);  // collective 2
  try {
    comm.allreduceSum(ones);  // collective 3: the fault fires
    FAIL() << "expected RankKilled";
  } catch (const sim::RankKilled& e) {
    EXPECT_EQ(e.rank(), 1);
  }
  // Fires once, then disarms: the communicator is usable again.
  EXPECT_FALSE(comm.failureArmed());
  EXPECT_EQ(comm.allreduceSum(ones), 3);
  // Cancel works too.
  comm.scheduleRankFailure(0, 0);
  comm.cancelScheduledFailure();
  EXPECT_EQ(comm.allreduceSum(ones), 3);
}

TEST(FaultInjection, KilledRankMidCampaignRestoresBitwiseHistory) {
  // The flagship end-to-end: a rank dies mid-step; the campaign resumes
  // from the latest checkpoint on a fresh communicator and must reproduce
  // the exact history a fault-free restart from the same checkpoint
  // produces — bitwise, field value for field value.
  auto opt = campaignOptions();
  auto ic = [&](const VecN<2>& x) { return dropIc(x, opt.params.Cn); };
  const int ckEvery = 2, totalSteps = 6, faultAfter = 4;

  // Reference: run 4 steps, checkpoint, restore (no fault), finish to 6.
  const std::string dirA = scratchDir();
  std::map<NodeKey<2>, Real, NodeKeyLess<2>> refPhi;
  Real refMass = 0, refEnergy = 0;
  {
    sim::SimComm comm(2, sim::Machine::loopback());
    chns::ChnsSolver<2> s(comm,
                          DistTree<2>::fromGlobal(comm, uniformTree<2>(4)),
                          opt);
    s.setInitialCondition(ic);
    chns::enableAutoCheckpoint(s, dirA, ckEvery, 2);
    for (int i = 0; i < faultAfter; ++i) s.step();
  }
  {
    sim::SimComm comm(2, sim::Machine::loopback());
    auto s = chns::resumeFromLatestValid<2>(comm, dirA, opt);
    EXPECT_EQ(s.stepsTaken(), faultAfter);
    while (s.stepsTaken() < totalSteps) s.step();
    refMass = s.phiIntegral();
    refEnergy = s.freeEnergy();
    for (int r = 0; r < 2; ++r) {
      const auto& rm = s.mesh().rank(r);
      for (std::size_t li = 0; li < rm.nNodes(); ++li)
        refPhi[rm.nodeKeys[li]] = s.phi()[r][li];
    }
  }

  // Faulted campaign: identical run, but rank 1 dies during step 5.
  const std::string dirB = scratchDir();
  {
    sim::SimComm comm(2, sim::Machine::loopback());
    chns::ChnsSolver<2> s(comm,
                          DistTree<2>::fromGlobal(comm, uniformTree<2>(4)),
                          opt);
    s.setInitialCondition(ic);
    chns::enableAutoCheckpoint(s, dirB, ckEvery, 2);
    for (int i = 0; i < faultAfter; ++i) s.step();
    comm.scheduleRankFailure(/*rank=*/1, /*afterCollectives=*/5);
    EXPECT_THROW(s.step(), sim::RankKilled);
    // The job is dead; the solver object is abandoned with it.
  }
  // Determinism check: both campaigns wrote identical step-4 checkpoints.
  EXPECT_EQ(readAll(dirA + "/" + chns::checkpointFileName(faultAfter)),
            readAll(dirB + "/" + chns::checkpointFileName(faultAfter)));
  {
    // Recovery on a fresh communicator (the relaunched job).
    sim::SimComm comm(2, sim::Machine::loopback());
    chns::ResumeInfo info;
    auto s = chns::resumeFromLatestValid<2>(comm, dirB, opt, &info);
    EXPECT_EQ(info.step, faultAfter);
    EXPECT_EQ(info.skippedCorrupt, 0);
    while (s.stepsTaken() < totalSteps) s.step();
    // Bitwise-identical history: diagnostics and every phi value by key.
    EXPECT_EQ(s.phiIntegral(), refMass);
    EXPECT_EQ(s.freeEnergy(), refEnergy);
    std::size_t checked = 0;
    for (int r = 0; r < 2; ++r) {
      const auto& rm = s.mesh().rank(r);
      for (std::size_t li = 0; li < rm.nNodes(); ++li) {
        auto it = refPhi.find(rm.nodeKeys[li]);
        ASSERT_TRUE(it != refPhi.end());
        EXPECT_EQ(s.phi()[r][li], it->second);  // bitwise
        ++checked;
      }
    }
    EXPECT_GT(checked, 0u);
  }
  fs::remove_all(dirA);
  fs::remove_all(dirB);
}

// ---------------------------------------------------------------------------
// Invariant validator
// ---------------------------------------------------------------------------

TEST(Validator, PassesOnCleanBuildAndSolver) {
  sim::SimComm comm(3, sim::Machine::loopback());
  auto dt = DistTree<2>::fromGlobal(comm, interfaceTree<2>(2, 4));
  auto mesh = Mesh<2>::build(comm, dt);
  auto rep = validate::checkAll(dt, mesh);
  EXPECT_TRUE(rep.ok()) << rep.str();
  Field phi = mesh.makeField(1);
  validate::checkNodalField(mesh, phi, 1, "phi", rep,
                            /*requireConsistent=*/true);
  sim::PerRank<std::vector<Real>> cn(3);
  for (int r = 0; r < 3; ++r) cn[r].assign(dt.localOf(r).size(), 0.04);
  validate::checkCellField(dt, cn, "cn", rep);
  EXPECT_TRUE(rep.ok()) << rep.str();
  EXPECT_NO_THROW(validate::enforce(rep, "clean build"));

  // The solver's one-call hook.
  auto opt = campaignOptions();
  chns::ChnsSolver<2> s(comm, DistTree<2>::fromGlobal(comm, uniformTree<2>(3)),
                        opt);
  s.setInitialCondition([&](const VecN<2>& x) {
    return dropIc(x, opt.params.Cn);
  });
  EXPECT_NO_THROW(s.validateNow("fresh solver"));
  s.step();
  EXPECT_NO_THROW(s.validateNow("after one step"));
}

TEST(Validator, DetectsBrokenInvariants) {
  sim::SimComm comm(2, sim::Machine::loopback());
  auto dt = DistTree<2>::fromGlobal(comm, interfaceTree<2>(2, 4));
  auto mesh = Mesh<2>::build(comm, dt);
  {  // unsorted local leaves
    auto broken = dt;
    ASSERT_GE(broken.localOf(0).size(), 2u);
    std::swap(broken.localOf(0)[0], broken.localOf(0)[1]);
    validate::Report rep;
    validate::checkTree(broken, rep);
    EXPECT_FALSE(rep.ok());
    EXPECT_THROW(validate::enforce(rep, "broken tree"), CheckError);
  }
  {  // coverage gap
    auto broken = dt;
    ASSERT_FALSE(broken.localOf(1).empty());
    broken.localOf(1).pop_back();
    validate::Report rep;
    validate::checkTree(broken, rep);
    EXPECT_FALSE(rep.ok());
  }
  {  // corrupted node ownership
    auto meshB = Mesh<2>::build(comm, dt);
    meshB.rank(0).nodeOwner[0] = 1;  // not the min sharer / wrong rank
    validate::Report rep;
    validate::checkMesh(meshB, rep);
    EXPECT_FALSE(rep.ok());
  }
  {  // mesh/tree misalignment
    auto broken = dt;
    broken.localOf(0).pop_back();
    validate::Report rep;
    validate::checkMeshTreeAlignment(mesh, broken, rep);
    EXPECT_FALSE(rep.ok());
  }
  {  // non-finite field value
    Field phi = mesh.makeField(1);
    phi[0][0] = std::numeric_limits<Real>::quiet_NaN();
    validate::Report rep;
    validate::checkNodalField(mesh, phi, 1, "phi", rep);
    EXPECT_FALSE(rep.ok());
  }
  {  // ghost copy disagreeing with the owner
    Field phi = mesh.makeField(1);
    bool bumped = false;
    for (int r = 0; r < 2 && !bumped; ++r)
      for (std::size_t li = 0; li < mesh.rank(r).nNodes() && !bumped; ++li)
        if (mesh.rank(r).nodeOwner[li] != r) {
          phi[r][li] = 1.0;  // ghost differs from owner's 0.0
          bumped = true;
        }
    ASSERT_TRUE(bumped);
    validate::Report rep;
    validate::checkNodalField(mesh, phi, 1, "phi", rep,
                              /*requireConsistent=*/true);
    EXPECT_FALSE(rep.ok());
  }
  {  // cell field misaligned with the leaves
    sim::PerRank<std::vector<Real>> cn(2);
    cn[0].assign(dt.localOf(0).size() + 1, 0.0);
    cn[1].assign(dt.localOf(1).size(), 0.0);
    validate::Report rep;
    validate::checkCellField(dt, cn, "cn", rep);
    EXPECT_FALSE(rep.ok());
  }
}

}  // namespace
}  // namespace pt
