// hier/checkpoint.hpp — checkpoint/restore/recover for hierarchical
// matrices.
//
// Persists the *entire* level structure (not the collapsed sum), so a
// restored matrix resumes streaming with identical cascade behaviour and
// the restart is invisible to both ingest and query paths. Cut schedule
// and cascade statistics ride along.
//
// A checkpoint is a run of store record frames (store/wal.hpp), every
// one stamped with the image's epoch and checksummed:
//   * one header frame of u64 words — nrows, ncols, the updates /
//     entries_appended / queries counters, the cut count c, the c cuts,
//     then (folds, entries_folded, max_entries) for each of the c + 1
//     levels;
//   * c + 1 level frames, shallowest first, each one gbx::serialize
//     matrix: the bottom's chunks written as one from the chunks in
//     place, and a demoted bottom level with its on-disk tier folded back
//     in (the file needs no store).
// The depth follows from the header's cut count. Older checkpoints end
// the header with one more word, the starting depth; restore() accepts
// and ignores it (every bottom is chunks). restore() decodes each frame
// into one block (the bottom's is then copied into chunks) and reads the
// whole stream as one checkpoint: a missing, extra, torn, corrupt or
// foreign-epoch frame throws.
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

#include <cstdint>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "gbx/serialize.hpp"
#include "hier/hier_matrix.hpp"
#include "hier/snapshot.hpp"
#include "store/wal.hpp"

namespace hier {

namespace detail {

/// The one checkpoint writer, over a frozen image. `st` is the
/// statistics block persisted with it. A compacted image (one level
/// under the same cuts) is written as empty upper levels above its
/// compact block, so every checkpoint holds cuts + 1 levels.
template <class T, class M>
void write_checkpoint(std::ostream& os, const HierSnapshot<T, M>& snap,
                      const HierStats& st) {
  const auto& cuts = snap.cuts();
  const std::size_t levels = cuts.size() + 1;
  GBX_CHECK_VALUE(snap.num_levels() == levels || snap.num_levels() == 1,
                  "checkpoint: image has neither cuts + 1 levels nor one");
  GBX_CHECK_VALUE(st.level.size() == levels,
                  "checkpoint: stats level count mismatch");
  std::vector<std::uint64_t> words{snap.nrows(), snap.ncols(), st.updates,
                                   st.entries_appended, st.queries,
                                   cuts.size()};
  words.insert(words.end(), cuts.begin(), cuts.end());
  for (const auto& ls : st.level)
    words.insert(words.end(), {ls.folds, ls.entries_folded, ls.max_entries});

  store::RecordLogWriter out(os);
  out.append(snap.epoch(), words.data(), words.size() * sizeof words[0]);
  const std::size_t skip = levels - snap.num_levels();
  for (std::size_t i = 0; i < levels; ++i) {
    std::ostringstream level;
    if (i + 1 == levels && snap.has_demoted()) {
      // Tier runs fold oldest-first, resident level last — the canonical
      // read order, so the bytes match a checkpoint of the equivalent
      // never-demoted matrix whenever the fold is bit-associative.
      gbx::Matrix<T, M> m(snap.nrows(), snap.ncols());
      snap.tier_view().materialize_into(m);
      snap.level_slices(i - skip).fold_into(m);
      gbx::serialize(level, m);
    } else {
      (i >= skip ? snap.level_slices(i - skip) : Level<T, M>())
          .serialize(level, snap.nrows(), snap.ncols());
    }
    const std::string bytes = std::move(level).str();
    out.append(snap.epoch(), bytes.data(), bytes.size());
  }
}

}  // namespace detail

/// Checkpoint a live epoch snapshot of one matrix from immutable frozen
/// views — so it can run on a reader thread while the origin matrix
/// keeps ingesting, and the file is the consistent image the snapshot's
/// epoch names. A set of several parts is refused before a byte is
/// written: a checkpoint restores one HierMatrix.
template <class T, class M>
void checkpoint(std::ostream& os, const SnapshotSet<T, M>& snap) {
  GBX_CHECK_VALUE(snap.size() == 1, "checkpoint: image is not one matrix");
  detail::write_checkpoint(os, snap.part(0), snap.part(0).stats());
}

/// Checkpoint a matrix: the snapshot writer over h.freeze(). It writes
/// the statistics from before that freeze, so the file does not count
/// its own freeze as a query, and the bytes equal a checkpoint of the
/// caller's last freeze() when nothing changed since.
template <class T, class M>
void checkpoint(std::ostream& os, const HierMatrix<T, M>& h) {
  const HierStats st = h.stats();
  detail::write_checkpoint(os, h.freeze().part(0), st);
}

template <class T, class M = gbx::PlusMonoid<T>>
HierMatrix<T, M> restore(std::istream& is) {
  store::RecordLogReader in(is);
  const auto head = in.next();
  GBX_CHECK(head.has_value(), "restore: empty stream (no header frame)");
  std::vector<std::uint64_t> w;
  // Word 5 is the cut count c; the header holds 9 + 4c words (and then
  // the retired starting-depth word, in older checkpoints).
  GBX_CHECK(store::payload_as(head->payload, w) && w.size() > 5 &&
                w[5] < w.size() &&
                (w.size() == 9 + 4 * w[5] || w.size() == 10 + 4 * w[5]),
            "restore: malformed header frame");
  GBX_CHECK(w[2] == head->epoch,
            "restore: header epoch is not its update count");
  const auto cuts = w.begin() + 6;
  HierMatrix<T, M> h(w[0], w[1],
                     CutPolicy(std::vector<std::size_t>(cuts, cuts + w[5])));
  HierStats st{w[2], w[3], w[4], {}};
  for (auto p = cuts + w[5]; p + 3 <= w.end(); p += 3)
    st.level.push_back({p[0], p[1], p[2], 0});

  for (std::size_t i = 0; i < h.num_levels(); ++i) {
    auto m = [&] {  // the frame's bytes are freed before the level lands
      const auto rec = in.next();
      GBX_CHECK(rec.has_value(), "restore: missing level frame");
      GBX_CHECK(rec->epoch == head->epoch,
                "restore: level frame of another epoch");
      std::istringstream level(
          std::string(reinterpret_cast<const char*>(rec->payload.data()),
                      rec->payload.size()));
      return gbx::deserialize<T, M>(level);
    }();
    h.restore_level(i, std::move(m));
  }
  GBX_CHECK(!in.next(), "restore: frame after the last level");
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
