// UploadServicer: the serving side of one peer.
//
// Owns the per-connection upload request queue, validation of incoming
// REQUESTs (including the Fast-Extension reject on choked links and the
// super-seeding reveal gate), the one-block-in-flight transfer slot, and
// recovery of upload slots wedged by a killed network flow.
#pragma once

#include <cstdint>

#include "peer/peer_context.h"
#include "wire/geometry.h"
#include "wire/messages.h"

namespace swarmlab::peer {

class UploadServicer {
 public:
  UploadServicer(PeerContext& ctx, PeerModules& mods)
      : ctx_(ctx), mods_(mods) {}

  // --- message handlers -------------------------------------------------
  void handle_request(Connection& conn, const wire::RequestMsg& msg);
  void handle_cancel(Connection& conn, const wire::CancelMsg& msg);

  /// The block we were uploading to `conn` finished transferring.
  void on_block_sent(Connection& conn, wire::BlockRef block,
                     std::uint32_t bytes);

  /// Counts a delivered block and notifies the observer. on_block_sent
  /// does this too; call it alone for a block that finished after its
  /// connection was closed.
  void account_upload(PeerId to, wire::BlockRef block, std::uint32_t bytes);

  /// Connection teardown: aborts the in-flight transfer.
  void on_disconnect(Connection& conn);

  /// Liveness tick: a killed network flow fires no on_block_sent;
  /// recover the wedged upload slot so serving resumes.
  void recover_wedged_upload(Connection& conn);

  [[nodiscard]] std::uint64_t total_uploaded() const { return uploaded_; }

 private:
  void start_next_upload(Connection& conn);

  PeerContext& ctx_;
  PeerModules& mods_;

  std::uint64_t uploaded_ = 0;
};

}  // namespace swarmlab::peer
