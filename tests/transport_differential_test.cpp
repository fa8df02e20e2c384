// Differential suite for the multi-process socket transport: a run whose
// exchanges physically traverse the driver<->rank-process wire must
// produce a state bit-identical (tol = 0) to the in-process loopback
// transport on every paper workload x rank layout x scheduler mode —
// frames carry bytes, never arithmetic. Also pins the wire accounting
// identity (socket payload bytes == 2x logical bytes_moved, loopback
// == 1x), checkpoint/resume of a multi-process run, and that transport
// failures reject a simulator exchange with a typed error.
//
// The whole file needs the CQS_TRANSPORT_SOCKET build.
#include <gtest/gtest.h>

#ifdef CQS_HAVE_SOCKET_TRANSPORT

#include <algorithm>
#include <string>
#include <vector>

#include "circuits/grover.hpp"
#include "circuits/qaoa.hpp"
#include "circuits/qft.hpp"
#include "circuits/supremacy.hpp"
#include "core/simulator.hpp"
#include "qsim/circuit.hpp"
#include "runtime/socket_transport.hpp"
#include "runtime/transport.hpp"
#include "test_util.hpp"

namespace cqs {
namespace {

struct NamedCircuit {
  std::string name;
  qsim::Circuit circuit;
};

/// The four paper workloads the issue's differential matrix names, at
/// sweep scale.
std::vector<NamedCircuit> workloads() {
  std::vector<NamedCircuit> all;
  all.push_back({"qft", circuits::qft_circuit({.num_qubits = 10})});
  all.push_back({"grover",
                 circuits::grover_circuit({.data_qubits = 4,
                                           .marked_state = 9,
                                           .iterations = 2})});
  all.push_back({"qaoa", circuits::qaoa_maxcut_circuit({.num_qubits = 10})});
  all.push_back({"supremacy",
                 circuits::supremacy_circuit(
                     {.rows = 3, .cols = 3, .depth = 5})});
  return all;
}

core::SimConfig base_config(int num_qubits, int num_ranks,
                            const std::string& transport) {
  core::SimConfig config;
  config.num_qubits = num_qubits;
  config.num_ranks = num_ranks;
  config.blocks_per_rank = std::max(4, 32 / num_ranks);
  config.transport = transport;
  return config;
}

TEST(TransportDifferentialTest, SocketMatchesLoopbackBitForBit) {
  // workloads x ranks {2, 4} x {batched, per-gate}, at a lossy ladder
  // level so compressed payloads (not just raw blocks) ride the wire.
  for (const auto& [name, circuit] : workloads()) {
    for (int ranks : {2, 4}) {
      for (bool batched : {true, false}) {
        core::SimConfig loop =
            base_config(circuit.num_qubits(), ranks, "loopback");
        if (!batched) {  // the per-gate baseline as a run configuration
          loop.max_run_length = 1;
          loop.enable_fusion_prepass = false;
        }
        loop.initial_level = 2;
        core::CompressedStateSimulator reference_sim(loop);
        reference_sim.apply_circuit(circuit);
        const auto reference = reference_sim.to_raw();
        const auto ref_report = reference_sim.report();

        core::SimConfig sock = loop;
        sock.transport = "socket";
        core::CompressedStateSimulator sim(sock);
        sim.apply_circuit(circuit);
        CQS_EXPECT_STATES_CLOSE(sim.to_raw(), reference, 0.0)
            << name << " ranks=" << ranks << " batched=" << batched;

        // Identical logical traffic, and the out-and-back wire identity.
        const auto report = sim.report();
        EXPECT_EQ(report.comm_bytes, ref_report.comm_bytes)
            << name << " ranks=" << ranks << " batched=" << batched;
        EXPECT_EQ(report.comm_messages, ref_report.comm_messages);
        EXPECT_EQ(report.transport, "socket");
        EXPECT_EQ(report.wire_payload_bytes, 2 * report.comm_bytes);
        EXPECT_EQ(ref_report.wire_payload_bytes, ref_report.comm_bytes);
      }
    }
  }
}

TEST(TransportDifferentialTest, TcpEndpointMatchesLoopback) {
  const auto circuit = circuits::qft_circuit({.num_qubits = 10});
  core::SimConfig loop = base_config(10, 2, "loopback");
  core::CompressedStateSimulator reference_sim(loop);
  reference_sim.apply_circuit(circuit);

  core::SimConfig sock = loop;
  sock.transport = "socket";
  sock.socket_endpoint = "tcp";
  core::CompressedStateSimulator sim(sock);
  sim.apply_circuit(circuit);
  CQS_EXPECT_STATES_CLOSE(sim.to_raw(), reference_sim.to_raw(), 0.0);
}

class TransportCheckpointTest : public test::TempDirFixture {};

TEST_F(TransportCheckpointTest, MultiProcessRunCheckpointsAndResumes) {
  // Save mid-circuit from a socket run, restore into a fresh socket
  // simulator (its own new rank processes), resume, and match an
  // uninterrupted loopback run bit-for-bit.
  const auto circuit = circuits::qft_circuit({.num_qubits = 10});
  const std::size_t cut = circuit.size() / 2;
  qsim::Circuit head(circuit.num_qubits());
  for (std::size_t i = 0; i < cut; ++i) head.append(circuit.ops()[i]);

  core::SimConfig sock = base_config(10, 2, "socket");
  core::CompressedStateSimulator first(sock);
  first.apply_circuit(head);
  first.save_checkpoint(path("socket.ckpt"));

  auto resumed = core::CompressedStateSimulator::load_checkpoint(
      path("socket.ckpt"), sock);
  resumed.resume_circuit(circuit);

  core::SimConfig loop = base_config(10, 2, "loopback");
  core::CompressedStateSimulator full(loop);
  full.apply_circuit(circuit);
  CQS_EXPECT_STATES_CLOSE(resumed.to_raw(), full.to_raw(), 0.0);
}

TEST(TransportFaultTest, CorruptedFrameFailsTheRunWithTypedError) {
  // Fault injection through the simulator: corrupt one echo and the next
  // cross-rank exchange must reject with kFrameCorrupt — the run fails
  // cleanly (processes still reaped by the destructor), never hangs.
  core::SimConfig sock = base_config(10, 2, "socket");
  sock.enable_cache = false;
  core::CompressedStateSimulator sim(sock);
  auto* transport = dynamic_cast<runtime::SocketTransport*>(
      &sim.comm().transport());
  ASSERT_NE(transport, nullptr);
  transport->inject_fault(1, runtime::wire::FrameType::kCorruptNext);
  const auto circuit = circuits::qft_circuit({.num_qubits = 10});
  try {
    sim.apply_circuit(circuit);
    FAIL() << "expected TransportError";
  } catch (const runtime::TransportError& e) {
    EXPECT_EQ(e.kind(), runtime::TransportError::Kind::kFrameCorrupt);
  }
}

TEST(TransportFaultTest, DeadRankFailsTheRunWithTypedError) {
  core::SimConfig sock = base_config(10, 2, "socket");
  sock.enable_cache = false;
  sock.rank_timeout_ms = 1000;
  core::CompressedStateSimulator sim(sock);
  auto* transport = dynamic_cast<runtime::SocketTransport*>(
      &sim.comm().transport());
  ASSERT_NE(transport, nullptr);
  transport->inject_fault(1, runtime::wire::FrameType::kDie);
  const auto circuit = circuits::qft_circuit({.num_qubits = 10});
  try {
    sim.apply_circuit(circuit);
    FAIL() << "expected TransportError";
  } catch (const runtime::TransportError& e) {
    EXPECT_TRUE(e.kind() == runtime::TransportError::Kind::kRankDead ||
                e.kind() == runtime::TransportError::Kind::kTimeout);
    EXPECT_EQ(e.rank(), 1);
  }
  // Clean shutdown: every rank process joins despite the mid-run death.
  const auto procs = transport->join();
  ASSERT_EQ(procs.size(), 2u);
  for (const auto& proc : procs) EXPECT_TRUE(proc.joined);
}

}  // namespace
}  // namespace cqs

#else  // !CQS_HAVE_SOCKET_TRANSPORT

#include "runtime/transport.hpp"

namespace cqs {
namespace {

TEST(TransportDifferentialTest, SkippedWithoutSocketBuild) {
  GTEST_SKIP() << "socket transport not built "
                  "(-DCQS_TRANSPORT_SOCKET=ON enables this suite)";
  (void)runtime::socket_transport_available();
}

}  // namespace
}  // namespace cqs

#endif  // CQS_HAVE_SOCKET_TRANSPORT
