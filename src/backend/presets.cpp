#include "backend/presets.hpp"

#include "common/error.hpp"

namespace hgp::backend {

FakeBackend make_auckland() {
  BackendInfo info;
  info.name = "ibm_auckland";
  info.num_qubits = 27;
  info.x_error = 2.229e-4;
  info.cx_error = 1.164e-2;
  info.readout_error = 0.011;
  info.t1_us = 166.220;
  info.t2_us = 145.620;
  info.readout_ns = 757.333;
  return FakeBackend(std::move(info), heavy_hex_27(), 0xA0C1ull);
}

FakeBackend make_toronto() {
  BackendInfo info;
  info.name = "ibmq_toronto";
  info.num_qubits = 27;
  info.x_error = 2.774e-4;
  info.cx_error = 9.677e-3;
  info.readout_error = 0.031;
  info.t1_us = 104.200;
  info.t2_us = 120.760;
  info.readout_ns = 5962.667;
  return FakeBackend(std::move(info), heavy_hex_27(), 0x7030ull);
}

FakeBackend make_montreal() {
  BackendInfo info;
  info.name = "ibmq_montreal";
  info.num_qubits = 27;
  info.x_error = 2.780e-4;
  info.cx_error = 1.049e-2;
  info.readout_error = 0.015;
  info.t1_us = 123.990;
  info.t2_us = 95.010;
  info.readout_ns = 5201.778;
  return FakeBackend(std::move(info), heavy_hex_27(), 0x301Eull);
}

FakeBackend make_guadalupe() {
  BackendInfo info;
  info.name = "ibmq_guadalupe";
  info.num_qubits = 16;
  info.x_error = 3.023e-4;
  info.cx_error = 1.108e-2;
  info.readout_error = 0.025;
  info.t1_us = 102.320;
  info.t2_us = 102.530;
  info.readout_ns = 7111.111;
  return FakeBackend(std::move(info), falcon_16(), 0x6A5Dull);
}

FakeBackend make_backend(const std::string& name) {
  if (name.find("auckland") != std::string::npos) return make_auckland();
  if (name.find("toronto") != std::string::npos) return make_toronto();
  if (name.find("montreal") != std::string::npos) return make_montreal();
  if (name.find("guadalupe") != std::string::npos) return make_guadalupe();
  throw Error("make_backend: unknown backend '" + name + "'");
}

}  // namespace hgp::backend
