// hier/checkpoint.hpp — checkpoint/restore/recover for hierarchical
// matrices.
//
// Persists the *entire* level structure (not the collapsed sum), so a
// restored matrix resumes streaming with identical cascade behaviour and
// the restart is invisible to both ingest and query paths. Cut schedule
// and cascade statistics ride along.
//
// Crash recovery: BatchWal logs every update batch to a store::RecordLog
// stream stamped with the epoch it produced (HierMatrix::epoch counts
// update() calls, so record k carries epoch k). recover() stitches the
// two automatically — restore the checkpoint, read its epoch E from the
// persisted statistics, and replay exactly the log records with epoch
// > E, verifying the suffix is whole: the first replayed record must be
// E+1 and the epochs contiguous from there. Torn tails (crash mid-
// append), overlapping records (epoch not strictly increasing — e.g.
// two writers on one log), and gapped suffixes (log truncated from the
// front past the checkpoint) are all rejected rather than replayed into
// a silently-wrong matrix.
#pragma once

#include <istream>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "gbx/serialize.hpp"
#include "hier/hier_matrix.hpp"
#include "hier/snapshot.hpp"
#include "store/wal.hpp"

namespace hier {

namespace detail {

inline constexpr std::uint64_t kCkptMagic = 0x48484752'43503031ull;  // "HHGRCP01"

/// The single definition of the checkpoint container. Both public
/// overloads feed it; `emit_level(os, i)` writes level i (a Matrix or a
/// frozen MatrixView — gbx::serialize produces identical bytes for
/// both, so restore() cannot tell the sources apart).
template <class EmitLevel>
void write_checkpoint(std::ostream& os, gbx::Index nrows, gbx::Index ncols,
                      const std::vector<std::size_t>& cuts,
                      std::size_t num_levels, const HierStats& st,
                      EmitLevel&& emit_level) {
  gbx::detail::write_pod(os, kCkptMagic);
  gbx::detail::write_pod<gbx::Index>(os, nrows);
  gbx::detail::write_pod<gbx::Index>(os, ncols);

  gbx::detail::write_vec(os, std::vector<std::uint64_t>(cuts.begin(), cuts.end()));

  gbx::detail::write_pod<std::uint64_t>(os, num_levels);
  for (std::size_t i = 0; i < num_levels; ++i) emit_level(os, i);

  // Statistics (so monitoring survives restarts).
  gbx::detail::write_pod(os, st.updates);
  gbx::detail::write_pod(os, st.entries_appended);
  gbx::detail::write_pod(os, st.queries);
  gbx::detail::write_pod<std::uint64_t>(os, st.level.size());
  for (const auto& ls : st.level) {
    gbx::detail::write_pod(os, ls.folds);
    gbx::detail::write_pod(os, ls.entries_folded);
    gbx::detail::write_pod(os, ls.max_entries);
  }
  GBX_CHECK(os.good(), "checkpoint: write failure");
}

}  // namespace detail

template <class T, class M>
void checkpoint(std::ostream& os, const HierMatrix<T, M>& h) {
  detail::write_checkpoint(
      os, h.nrows(), h.ncols(), h.cut_policy().cuts(), h.num_levels(),
      h.stats(), [&](std::ostream& o, std::size_t i) {
        // A demoted bottom level's resident matrix is only a fragment of
        // the level's logical value — fold the on-disk tier back in so
        // the checkpoint is self-contained (restore() needs no block
        // store, and recover() stays store-agnostic).
        if (i + 1 == h.num_levels() && h.has_demoted()) {
          gbx::serialize(o, h.materialized_level(i));
        } else {
          gbx::serialize(o, h.level(i));
        }
      });
}

/// Checkpoint a live epoch snapshot: byte-for-byte the same container as
/// the HierMatrix overload (restore() reads either), but sourced from
/// immutable frozen views — so it can run on a reader thread while the
/// origin matrix keeps ingesting, and the file is guaranteed to be the
/// consistent image the snapshot's epoch names.
template <class T, class M>
void checkpoint(std::ostream& os, const HierSnapshot<T, M>& snap) {
  detail::write_checkpoint(
      os, snap.nrows(), snap.ncols(), snap.cuts(), snap.num_levels(),
      snap.stats(), [&](std::ostream& o, std::size_t i) {
        // Same demoted-bottom rule as the HierMatrix overload: fold the
        // snapshot's pinned tier image into the bottom level so the file
        // is self-contained. Tier runs fold oldest-first, resident view
        // last — the canonical read order, so the bytes match a
        // checkpoint of the equivalent never-demoted matrix whenever the
        // monoid's fold is bit-associative.
        if (i + 1 == snap.num_levels() && snap.has_demoted()) {
          gbx::Matrix<T, M> bottom(snap.nrows(), snap.ncols());
          snap.tier_view().materialize_into(bottom);
          bottom.plus_assign(snap.level(i));
          gbx::serialize(o, bottom);
        } else {
          gbx::serialize(o, snap.level(i));
        }
      });
}

template <class T, class M = gbx::PlusMonoid<T>>
HierMatrix<T, M> restore(std::istream& is) {
  GBX_CHECK(gbx::detail::read_pod<std::uint64_t>(is) == detail::kCkptMagic,
            "restore: bad magic (not an hhgbx checkpoint)");
  const auto nrows = gbx::detail::read_pod<gbx::Index>(is);
  const auto ncols = gbx::detail::read_pod<gbx::Index>(is);
  std::vector<std::uint64_t> cuts64;
  gbx::detail::read_vec_into(is, cuts64);
  CutPolicy cuts(std::vector<std::size_t>(cuts64.begin(), cuts64.end()));

  HierMatrix<T, M> h(nrows, ncols, std::move(cuts));
  const auto levels = gbx::detail::read_pod<std::uint64_t>(is);
  GBX_CHECK(levels == h.num_levels(), "restore: level count mismatch");
  for (std::size_t i = 0; i < levels; ++i) {
    auto m = gbx::deserialize<T, M>(is);
    GBX_CHECK(m.nrows() == nrows && m.ncols() == ncols,
              "restore: level dimension mismatch");
    h.restore_level(i, std::move(m));
  }

  HierStats st;
  st.updates = gbx::detail::read_pod<std::uint64_t>(is);
  st.entries_appended = gbx::detail::read_pod<std::uint64_t>(is);
  st.queries = gbx::detail::read_pod<std::uint64_t>(is);
  const auto nls = gbx::detail::read_pod<std::uint64_t>(is);
  GBX_CHECK(nls == levels, "restore: stats level count mismatch");
  st.level.resize(nls);
  for (auto& ls : st.level) {
    ls.folds = gbx::detail::read_pod<std::uint64_t>(is);
    ls.entries_folded = gbx::detail::read_pod<std::uint64_t>(is);
    ls.max_entries = gbx::detail::read_pod<std::uint64_t>(is);
  }
  h.restore_stats(std::move(st));
  return h;
}

/// Write-ahead logger for streaming ingest: call log() with every batch
/// BEFORE applying it, stamping the epoch the batch will produce (the
/// matrix's epoch after the update — i.e. epoch() + 1 at call time).
/// recover() replays these records above a checkpoint's epoch.
template <class T>
class BatchWal {
 public:
  explicit BatchWal(std::ostream& os) : writer_(os) {}

  /// Log one update batch as record `epoch`. Epochs must be appended in
  /// strictly increasing order (one record per update() call).
  void log(std::uint64_t epoch, const gbx::Tuples<T>& batch) {
    const auto& entries = batch.entries();
    writer_.append(epoch, entries.data(),
                   entries.size() * sizeof(gbx::Entry<T>));
  }

  /// Convenience: log the batch about to be applied to `h`, then apply
  /// it — the epoch stamp and the matrix's epoch cannot drift apart.
  template <class M>
  void log_and_update(HierMatrix<T, M>& h, const gbx::Tuples<T>& batch) {
    log(h.epoch() + 1, batch);
    h.update(batch);
  }

  std::uint64_t records() const { return writer_.records(); }
  std::uint64_t bytes_logged() const { return writer_.bytes_logged(); }

 private:
  store::RecordLogWriter writer_;
};

/// Epoch-contiguity guard over a replayed WAL suffix — the shared
/// admission rule of recover() and the replication replica
/// (repl::ReplicaServer): records must arrive with strictly increasing
/// epochs, records at or below the base epoch are skipped (already in
/// the checkpoint / already applied), and the applied suffix must be
/// contiguous from base+1. Violations throw gbx::Error with the
/// caller's context prefixed, so a gapped replica stream and a gapped
/// crash log report through one code path.
class ReplayCursor {
 public:
  explicit ReplayCursor(std::uint64_t base_epoch, std::string context = "replay")
      : base_(base_epoch), applied_(base_epoch), ctx_(std::move(context)) {}

  /// Classify one record. True ⇒ apply it (then call mark_applied);
  /// false ⇒ skip (epoch covered by the base). Throws on overlap / gap.
  bool admit(std::uint64_t epoch) {
    GBX_CHECK(!any_seen_ || epoch > last_seen_,
              ctx_ + ": overlapping WAL suffix (record epochs must be "
                     "strictly increasing)");
    any_seen_ = true;
    last_seen_ = epoch;
    if (epoch <= base_) return false;
    GBX_CHECK(epoch == applied_ + 1,
              ctx_ + ": gapped WAL suffix (missing update records between "
                     "epoch " + std::to_string(applied_) + " and " +
                     std::to_string(epoch) + ")");
    return true;
  }

  void mark_applied(std::uint64_t epoch) { applied_ = epoch; }
  std::uint64_t applied() const { return applied_; }
  std::uint64_t base() const { return base_; }

 private:
  std::uint64_t base_;
  std::uint64_t applied_;
  std::uint64_t last_seen_ = 0;
  bool any_seen_ = false;
  std::string ctx_;
};

/// What recover() found and did.
struct RecoveryReport {
  std::uint64_t checkpoint_epoch = 0;  ///< E, read from the checkpoint
  std::uint64_t skipped_records = 0;   ///< log records with epoch <= E
  std::uint64_t replayed_records = 0;  ///< log records applied (epoch > E)
  std::uint64_t replayed_entries = 0;  ///< entries inside those records
};

/// Automatic crash recovery: restore the checkpoint, read its epoch E,
/// and replay exactly the WAL records with epoch > E. The WAL must hold
/// one record per update() call stamped with the epoch that update
/// produced (BatchWal enforces the shape). Throws gbx::Error on:
///   * torn suffix       — truncated/corrupt frame (store::RecordLogReader),
///   * overlapping suffix— epochs not strictly increasing,
///   * gapped suffix     — first record above E is not E+1, or a later
///                         record skips an epoch.
template <class T, class M = gbx::PlusMonoid<T>>
HierMatrix<T, M> recover(std::istream& ckpt, std::istream& wal,
                         RecoveryReport* report = nullptr) {
  HierMatrix<T, M> h = restore<T, M>(ckpt);
  const std::uint64_t ckpt_epoch = h.epoch();

  RecoveryReport rep;
  rep.checkpoint_epoch = ckpt_epoch;

  store::RecordLogReader reader(wal);
  ReplayCursor cursor(ckpt_epoch, "recover");
  while (auto rec = reader.next()) {
    if (!cursor.admit(rec->epoch)) {
      ++rep.skipped_records;
      continue;
    }
    std::vector<gbx::Entry<T>> entries;
    GBX_CHECK(store::payload_as(rec->payload, entries),
              "recover: WAL record payload is not a whole entry array");
    const gbx::Tuples<T> batch(std::move(entries));
    rep.replayed_entries += batch.size();
    h.update(batch);
    ++rep.replayed_records;
    cursor.mark_applied(rec->epoch);
  }
  if (report != nullptr) *report = rep;
  return h;
}

}  // namespace hier
