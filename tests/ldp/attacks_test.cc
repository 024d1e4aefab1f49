#include "ldp/attacks.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace itrim {
namespace {

TEST(InputManipulationTest, ReportsAreProtocolCompliant) {
  // Poison reports from input manipulation must be distributed exactly like
  // an honest user holding the fake input: mean = fake input.
  PiecewiseMechanism mech(1.0);
  InputManipulationAttack attack(1.0);
  Rng rng(1);
  double acc = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) acc += attack.PoisonReport(mech, &rng);
  EXPECT_NEAR(acc / n, 1.0, 0.03);
}

TEST(InputManipulationTest, ReportsStayInDomain) {
  PiecewiseMechanism mech(1.0);
  InputManipulationAttack attack(1.0);
  Rng rng(2);
  for (int i = 0; i < 5000; ++i) {
    double r = attack.PoisonReport(mech, &rng);
    EXPECT_GE(r, mech.report_lo());
    EXPECT_LE(r, mech.report_hi());
  }
}

TEST(InputManipulationTest, CustomFakeInput) {
  DuchiMechanism mech(2.0);
  InputManipulationAttack attack(-1.0);  // skew downward
  Rng rng(3);
  double acc = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) acc += attack.PoisonReport(mech, &rng);
  EXPECT_NEAR(acc / n, -1.0, 0.05);
}

}  // namespace
}  // namespace itrim
