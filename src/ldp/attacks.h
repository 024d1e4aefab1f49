// Data manipulation attacks against LDP protocols (Cheu, Smith & Ullman;
// Cao, Jia & Gong).
//
//  * LdpAttack — the poison-report generator interface the LDP game and
//    tenants take.
//  * InputManipulationAttack — the attacker counterfeits an input value and
//    then follows the perturbation protocol honestly. Maximally evasive:
//    individual poison reports are distributed exactly like some honest
//    user's, so they are deniable and indistinguishable one-by-one.
#ifndef ITRIM_LDP_ATTACKS_H_
#define ITRIM_LDP_ATTACKS_H_

#include "common/rng.h"
#include "ldp/mechanism.h"

namespace itrim {

/// \brief Generates one poison report per call.
class LdpAttack {
 public:
  virtual ~LdpAttack() = default;
  /// \brief One poison report against `mechanism`.
  virtual double PoisonReport(const LdpMechanism& mechanism, Rng* rng) = 0;
};

/// \brief Counterfeit input, honest perturbation (strong evasion).
class InputManipulationAttack : public LdpAttack {
 public:
  /// `fake_input` is the counterfeit value (clamped into [-1, 1]); the
  /// classic skew-the-mean attack uses +1.
  explicit InputManipulationAttack(double fake_input = 1.0)
      : fake_input_(fake_input) {}
  double PoisonReport(const LdpMechanism& mechanism, Rng* rng) override {
    return mechanism.Perturb(fake_input_, rng);
  }

 private:
  double fake_input_;
};

}  // namespace itrim

#endif  // ITRIM_LDP_ATTACKS_H_
