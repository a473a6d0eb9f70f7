// Swarm-wide entropy index and multi-file metainfo tests.
#include <gtest/gtest.h>

#include "swarm/entropy.h"
#include "wire/messages.h"  // WireError
#include "wire/metainfo.h"

namespace swarmlab {
namespace {

using peer::PeerConfig;
using peer::PeerId;

struct Harness {
  explicit Harness(std::uint32_t pieces = 8, std::uint64_t seed = 1)
      : sim(seed),
        geo(std::uint64_t{pieces} * 256 * 1024, 256 * 1024, 16 * 1024),
        swarm(sim, geo) {}

  PeerId add_with(std::vector<bool> pieces_held) {
    PeerConfig cfg;
    cfg.upload_capacity = 20e3;
    cfg.initial_pieces = std::move(pieces_held);
    const PeerId id = swarm.add_peer(std::move(cfg));
    swarm.start_peer(id);
    return id;
  }

  sim::Simulation sim;
  wire::ContentGeometry geo;
  swarm::Swarm swarm;
};

TEST(SwarmEntropy, VacuouslyIdealWithFewLeechers) {
  Harness h;
  EXPECT_DOUBLE_EQ(swarm::pairwise_interest_entropy(h.swarm), 1.0);
  h.add_with({true, false, false, false, false, false, false, false});
  EXPECT_DOUBLE_EQ(swarm::pairwise_interest_entropy(h.swarm), 1.0);
}

TEST(SwarmEntropy, DisjointHoldingsAreIdeal) {
  Harness h;
  h.add_with({true, false, false, false, false, false, false, false});
  h.add_with({false, true, false, false, false, false, false, false});
  // Each has a piece the other lacks: both directions interested.
  EXPECT_DOUBLE_EQ(swarm::pairwise_interest_entropy(h.swarm), 1.0);
}

TEST(SwarmEntropy, SubsetBreaksOneDirection) {
  Harness h;
  h.add_with({true, true, false, false, false, false, false, false});
  h.add_with({true, false, false, false, false, false, false, false});
  // The superset peer is not interested in the subset peer: 1 of 2
  // ordered pairs.
  EXPECT_DOUBLE_EQ(swarm::pairwise_interest_entropy(h.swarm), 0.5);
}

TEST(SwarmEntropy, IdenticalHoldingsAreZero) {
  Harness h;
  const std::vector<bool> held{true, true, false, false,
                               false, false, false, false};
  h.add_with(held);
  h.add_with(held);
  h.add_with(held);
  EXPECT_DOUBLE_EQ(swarm::pairwise_interest_entropy(h.swarm), 0.0);
}

TEST(SwarmEntropy, SeedsAreExcluded) {
  Harness h;
  PeerConfig seed;
  seed.start_complete = true;
  seed.upload_capacity = 20e3;
  h.swarm.start_peer(h.swarm.add_peer(std::move(seed)));
  const std::vector<bool> held{true, false, false, false,
                               false, false, false, false};
  h.add_with(held);
  h.add_with(held);
  // Two identical leechers: entropy 0 regardless of the seed.
  EXPECT_DOUBLE_EQ(swarm::pairwise_interest_entropy(h.swarm), 0.0);
}

// --- multi-file metainfo -----------------------------------------------------

TEST(MultiFileMetainfo, RoundTrip) {
  wire::Metainfo meta;
  meta.announce = "http://tracker/announce";
  meta.name = "album";
  meta.piece_length = 256 * 1024;
  meta.files = {{"disc1/track01.flac", 300 * 1024},
                {"disc1/track02.flac", 200 * 1024},
                {"cover.jpg", 24 * 1024}};
  meta.length = 524 * 1024;
  meta.piece_hashes.resize(meta.geometry().num_pieces());
  const std::string encoded = wire::encode_metainfo(meta);
  const wire::Metainfo decoded = wire::decode_metainfo(encoded);
  EXPECT_EQ(decoded, meta);
  EXPECT_EQ(decoded.files.size(), 3u);
  EXPECT_EQ(decoded.files[0].path, "disc1/track01.flac");
  EXPECT_EQ(decoded.length, 524u * 1024);
}

TEST(MultiFileMetainfo, TotalLengthIsSumOfFiles) {
  wire::Metainfo meta;
  meta.announce = "t";
  meta.name = "n";
  meta.piece_length = 256 * 1024;
  meta.files = {{"a", 100 * 1024}, {"b", 156 * 1024}};
  meta.length = 256 * 1024;
  meta.piece_hashes.resize(1);
  const wire::Metainfo decoded =
      wire::decode_metainfo(wire::encode_metainfo(meta));
  EXPECT_EQ(decoded.length, 256u * 1024);
  EXPECT_EQ(decoded.geometry().num_pieces(), 1u);
}

TEST(MultiFileMetainfo, InfoHashDiffersFromSingleFile) {
  wire::Metainfo single = wire::make_synthetic_metainfo(
      "t", "n", 256 * 1024);
  wire::Metainfo multi = single;
  multi.files = {{"n", 256 * 1024}};
  EXPECT_NE(wire::info_hash(single), wire::info_hash(multi));
}

TEST(MultiFileMetainfo, EmptyPathRejected) {
  // Hand-craft a files list with an empty path list.
  const std::string bad =
      "d8:announce1:t4:infod5:filesld6:lengthi100e4:pathleee4:name1:n"
      "12:piece lengthi262144e6:pieces20:aaaaaaaaaaaaaaaaaaaaee";
  EXPECT_THROW(wire::decode_metainfo(bad), wire::WireError);
}

}  // namespace
}  // namespace swarmlab
