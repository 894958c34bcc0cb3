#include <gtest/gtest.h>

#include <sstream>

#include "obs/phase.hpp"
#include "support/check.hpp"
#include "support/csv.hpp"
#include "support/rng.hpp"
#include "support/vecn.hpp"

namespace pt {
namespace {

TEST(VecN, Arithmetic) {
  Vec2 a{{1.0, 2.0}}, b{{3.0, -1.0}};
  Vec2 c = a + b;
  EXPECT_DOUBLE_EQ(c[0], 4.0);
  EXPECT_DOUBLE_EQ(c[1], 1.0);
  EXPECT_DOUBLE_EQ(dot(a, b), 1.0);
  Vec2 d = 2.0 * a;
  EXPECT_DOUBLE_EQ(d[1], 4.0);
  EXPECT_DOUBLE_EQ(norm(Vec2{{3.0, 4.0}}), 5.0);
}

TEST(VecN, SubtractAndCompare) {
  Vec3 a{{1, 2, 3}}, b{{1, 2, 3}};
  EXPECT_EQ(a, b);
  Vec3 z = a - b;
  EXPECT_DOUBLE_EQ(norm(z), 0.0);
}

TEST(Check, ThrowsOnFailure) {
  EXPECT_THROW(PT_CHECK(1 == 2), CheckError);
  EXPECT_NO_THROW(PT_CHECK(1 == 1));
  EXPECT_THROW(PT_CHECK_MSG(false, "context"), CheckError);
}

TEST(Check, MessageContainsContext) {
  try {
    PT_CHECK_MSG(false, "special-context");
    FAIL() << "expected throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("special-context"),
              std::string::npos);
  }
}

TEST(PhaseSet, NamedAccess) {
  obs::PhaseSet ps;
  { obs::ScopedPhase sp(ps["ch-solve"]); }
  EXPECT_EQ(ps.all().size(), 1u);
  EXPECT_EQ(ps["ch-solve"].calls(), 1);
  EXPECT_GE(ps.all()["ch-solve"].seconds(), 0.0);
  ps.reset();
  EXPECT_EQ(ps["ch-solve"].calls(), 0);
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniformInt(0, 1000), b.uniformInt(0, 1000));
  }
}

TEST(Rng, UniformInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    Real v = r.uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
    auto k = r.uniformInt(5, 9);
    EXPECT_GE(k, 5);
    EXPECT_LE(k, 9);
  }
}

TEST(Table, PrintsAlignedAndCsv) {
  Table t({"procs", "time"});
  t.addRow(224, 2.87);
  t.addRow(28672, 0.027);
  std::ostringstream os;
  t.print(os, "matvec");
  EXPECT_NE(os.str().find("matvec"), std::string::npos);
  EXPECT_NE(os.str().find("28672"), std::string::npos);
  std::ostringstream cs;
  t.printCsv(cs);
  EXPECT_NE(cs.str().find("procs,time"), std::string::npos);
}

}  // namespace
}  // namespace pt
