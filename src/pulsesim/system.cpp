#include "pulsesim/system.hpp"

#include "common/error.hpp"
#include "linalg/pauli.hpp"
#include "linalg/types.hpp"

namespace hgp::psim {

using la::cxd;
using la::CMat;
using la::Pauli;
using la::PauliString;

PulseSystem::PulseSystem(std::size_t num_qubits)
    : num_qubits_(num_qubits), h0_(dim(), dim()) {
  HGP_REQUIRE(num_qubits == 1 || num_qubits == 2,
              "PulseSystem: the pulse simulator walks 1- and 2-qubit subsystems");
}

const ChannelOperator* PulseSystem::find_channel(const pulse::Channel& c) const {
  for (const ChannelOperator& op : channels_)
    if (op.channel == c) return &op;
  return nullptr;
}

void PulseSystem::set_detuning(std::size_t q, double delta_ghz) {
  HGP_REQUIRE(q < num_qubits_, "set_detuning: qubit out of range");
  h0_ += PauliString::single(num_qubits_, q, Pauli::Z).matrix() * cxd{delta_ghz / 2.0, 0.0};
}

void PulseSystem::add_zz_crosstalk(std::size_t a, std::size_t b, double zeta_ghz) {
  HGP_REQUIRE(a < num_qubits_ && b < num_qubits_ && a != b, "add_zz_crosstalk: bad qubits");
  std::vector<Pauli> ops(num_qubits_, Pauli::I);
  ops[a] = Pauli::Z;
  ops[b] = Pauli::Z;
  h0_ += PauliString(ops).matrix() * cxd{zeta_ghz / 4.0, 0.0};
}

void PulseSystem::add_exchange(std::size_t a, std::size_t b, double j_ghz) {
  HGP_REQUIRE(a < num_qubits_ && b < num_qubits_ && a != b, "add_exchange: bad qubits");
  std::vector<Pauli> xx(num_qubits_, Pauli::I), yy(num_qubits_, Pauli::I);
  xx[a] = Pauli::X;
  xx[b] = Pauli::X;
  yy[a] = Pauli::Y;
  yy[b] = Pauli::Y;
  h0_ += (PauliString(xx).matrix() + PauliString(yy).matrix()) * cxd{j_ghz / 2.0, 0.0};
}

void PulseSystem::add_drive(std::size_t q, double rate_ghz) {
  HGP_REQUIRE(q < num_qubits_, "add_drive: qubit out of range");
  ChannelOperator op;
  op.channel = pulse::Channel::drive(q);
  op.x_quad = PauliString::single(num_qubits_, q, Pauli::X).matrix() * cxd{rate_ghz / 2.0, 0.0};
  op.y_quad = PauliString::single(num_qubits_, q, Pauli::Y).matrix() * cxd{rate_ghz / 2.0, 0.0};
  channels_.push_back(std::move(op));
}

void PulseSystem::add_cr(std::size_t u, std::size_t control, std::size_t target,
                         double mu_zx_ghz, double mu_ix_ghz, double mu_zi_ghz) {
  HGP_REQUIRE(control < num_qubits_ && target < num_qubits_ && control != target,
              "add_cr: bad qubits");
  auto two = [&](Pauli pc, Pauli pt) {
    std::vector<Pauli> ops(num_qubits_, Pauli::I);
    ops[control] = pc;
    ops[target] = pt;
    return PauliString(ops).matrix();
  };
  ChannelOperator op;
  op.channel = pulse::Channel::control(u);
  op.x_quad = two(Pauli::Z, Pauli::X) * cxd{mu_zx_ghz / 2.0, 0.0} +
              two(Pauli::I, Pauli::X) * cxd{mu_ix_ghz / 2.0, 0.0};
  op.y_quad = two(Pauli::Z, Pauli::Y) * cxd{mu_zx_ghz / 2.0, 0.0} +
              two(Pauli::I, Pauli::Y) * cxd{mu_ix_ghz / 2.0, 0.0};
  op.sq_quad = two(Pauli::Z, Pauli::I) * cxd{mu_zi_ghz / 2.0, 0.0};
  channels_.push_back(std::move(op));
}

void PulseSystem::set_gain(const pulse::Channel& c, double gain) {
  for (ChannelOperator& op : channels_) {
    if (op.channel == c) {
      op.gain = gain;
      return;
    }
  }
  HGP_REQUIRE(false, "set_gain: channel not wired: " + c.str());
}

}  // namespace hgp::psim
