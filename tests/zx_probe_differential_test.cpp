// Block differential test for the "zstd" codec's repeat probe: every block
// of mid-circuit states of the bundled circuits goes through ZxCodec and
// through unprobed zx_compress_into. At 64 KiB and 512 KiB blocks the
// containers must be byte-identical; at 8 KiB blocks, where LZ77 matches
// the probe does not look for occasionally exist in blocks without an
// aligned repeat, each dataset's compressed size may grow by at most 1%. Every probed container
// must also decode back to its block.
#include <gtest/gtest.h>

#include <algorithm>
#include <complex>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "circuits/grover.hpp"
#include "circuits/qaoa.hpp"
#include "circuits/qft.hpp"
#include "circuits/supremacy.hpp"
#include "compression/codec_scratch.hpp"
#include "compression/compressor.hpp"
#include "lossless/zx.hpp"
#include "qsim/state_vector.hpp"

namespace cqs::compression {
namespace {

struct Dataset {
  std::string name;
  std::vector<double> values;  // re/im interleaved amplitudes
};

/// QFT on the basis state `input` (no random X layer).
qsim::Circuit qft_on(int n, std::uint64_t input) {
  qsim::Circuit c(n);
  for (int q = 0; q < n; ++q) {
    if ((input >> q) & 1) c.x(q);
  }
  const qsim::Circuit qft = circuits::qft_circuit(
      {.num_qubits = n, .random_input = false, .final_swaps = true});
  for (const auto& op : qft.ops()) c.append(op);
  return c;
}

/// States after 1/3, 2/3 and all of `circuit`'s gates.
void add_snapshots(const std::string& name, const qsim::Circuit& circuit,
                   std::vector<Dataset>& out) {
  qsim::StateVector sv(circuit.num_qubits());
  const std::size_t gates = circuit.size();
  std::size_t applied = 0;
  for (int third = 1; third <= 3; ++third) {
    for (; applied < gates * third / 3; ++applied) {
      sv.apply(circuit.ops()[applied]);
    }
    const auto amps = sv.amplitudes();
    std::vector<double> values(2 * amps.size());
    std::memcpy(values.data(), amps.data(), values.size() * sizeof(double));
    out.push_back({name + "@" + std::to_string(third) + "/3",
                   std::move(values)});
  }
}

const std::vector<Dataset>& datasets() {
  static const std::vector<Dataset> all = [] {
    constexpr int n = 16;
    std::vector<Dataset> d;
    add_snapshots("qft-odd", qft_on(n, 0xa5b7), d);
    add_snapshots("qft-even", qft_on(n, 0xa5b6), d);
    add_snapshots("qaoa", circuits::qaoa_maxcut_circuit({.num_qubits = n}),
                  d);
    add_snapshots("supremacy",
                  circuits::supremacy_circuit({.rows = 4, .cols = 4}), d);
    const int data_qubits = circuits::grover_data_qubits(n);
    add_snapshots("grover",
                  circuits::grover_circuit({.data_qubits = data_qubits,
                                            .marked_state = 37,
                                            .iterations = 2}),
                  d);
    return d;
  }();
  return all;
}

struct Totals {
  std::size_t probed = 0;
  std::size_t unprobed = 0;
  std::size_t changed_blocks = 0;
  std::size_t skipped_blocks = 0;  // the probe found no repeat
};

Totals compress_blocks(std::span<const double> values,
                       std::size_t block_bytes) {
  const auto codec = make_compressor("zstd");
  CodecScratch probed_scratch;
  lossless::ZxScratch unprobed_scratch;
  const std::size_t per_block = block_bytes / sizeof(double);
  std::vector<double> decoded;
  Totals t;
  for (std::size_t at = 0; at < values.size(); at += per_block) {
    const auto block =
        values.subspan(at, std::min(per_block, values.size() - at));
    decoded.resize(block.size());
    const Bytes probed =
        codec->compress(block, ErrorBound::lossless(), probed_scratch);
    Bytes unprobed;
    lossless::zx_compress_into(as_bytes_span(block), {}, unprobed_scratch,
                               unprobed);
    codec->decompress(probed, decoded, probed_scratch);
    EXPECT_EQ(0,
              std::memcmp(decoded.data(), block.data(), block.size_bytes()));
    t.probed += probed.size();
    t.unprobed += unprobed.size();
    if (probed != unprobed) ++t.changed_blocks;
    if (!lossless::zx_has_word_repeat(as_bytes_span(block), unprobed_scratch)) {
      ++t.skipped_blocks;
    }
  }
  return t;
}

TEST(ZxProbeDifferentialTest, LargeBlocksAreByteIdentical) {
  std::size_t skipped = 0;
  for (const auto& ds : datasets()) {
    for (std::size_t block_bytes : {std::size_t{64} << 10,
                                    std::size_t{512} << 10}) {
      const Totals t = compress_blocks(ds.values, block_bytes);
      EXPECT_EQ(t.changed_blocks, 0u)
          << ds.name << " at " << (block_bytes >> 10) << " KiB";
      skipped += t.skipped_blocks;
    }
  }
  // The comparison only means something if the probe skipped LZ77 on some
  // blocks (the incompressible QFT states).
  EXPECT_GT(skipped, 0u);
}

TEST(ZxProbeDifferentialTest, SmallBlocksKeepRatioWithinOnePercent) {
  for (const auto& ds : datasets()) {
    const Totals t = compress_blocks(ds.values, std::size_t{8} << 10);
    EXPECT_LE(static_cast<double>(t.probed),
              1.01 * static_cast<double>(t.unprobed))
        << ds.name << ": " << t.changed_blocks << " blocks changed";
  }
}

}  // namespace
}  // namespace cqs::compression
