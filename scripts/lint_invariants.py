#!/usr/bin/env python3
"""Repo-specific invariant checks that neither the compiler nor
clang-tidy expresses directly. Run from anywhere; exits nonzero with a
file:line diagnostic per violation.

Checks:
  1. Every header under src/ starts with `#pragma once` (after the
     leading comment block) — headers must be safely multi-includable.
  2. No naked `new` outside the allowlist — ownership goes through
     containers / smart pointers (gbx/scratch.hpp owns the one audited
     arena exception).
  3. Annotated subsystems (src/hier, src/store, src/net, src/repl,
     src/cluster) must not declare raw std::mutex / std::shared_mutex /
     std::condition_variable members or locals: they use gbx::Mutex /
     gbx::CondVar from gbx/thread_annotations.hpp so the thread-safety
     analysis sees every acquisition (the wrapper header itself is the
     one allowed user of the std primitives).
  4. `::bind(`, `::listen(` and `::accept4(` appear only in
     src/net/frame_loop.hpp: every front end takes its listener and its
     accepted sockets from the one session core, so none can grow a
     private listener again.
  5. No `std::thread`, `::recv(`, `::send(`, `::poll(`, `send_all` or
     `sleep_for` under src/cluster (except the Fig. 2 scaling harness,
     which is no handler and runs one thread per instance) or in
     src/repl/wal_shipper.hpp: the router and the WAL shipper are
     handlers on the session core, where their sessions share one loop
     thread and the core's nonblocking socket I/O. A thread, a blocking
     socket call or a sleep there would bring back a second session
     loop and the locks it needs (the worker pool's forked processes
     need neither). The WAL shipper also declares no `net::FrameLoop`
     member and names neither `gbx::Mutex` nor `gbx::CondVar`: it owns
     no loop and no lock, because it is a second handler on the ingest
     server's loop, which hands it each batch and reads the replica's
     ack on the thread that settles the flush. A loop of its own would
     bring back the cross-thread batch queue and its lock.
  6. No file under src/hier includes store/btree_store.hpp,
     store/lsm_store.hpp or store/bloom.hpp: those are the Fig. 2
     database comparator models. The out-of-core tier's demoted runs
     are immutable and sorted, and each run indexes its own rows, so
     the tier cannot grow a second index over them again.
  7. The memory governor knows no source type: src/hier/memory_governor.hpp
     includes none of hier/hier_matrix.hpp, hier/parallel_stream.hpp
     or hier/instance_array.hpp, and no file under src/ declares
     `set_write_observer`. The governor classifies
     against the block identities of the image it just froze, so it
     needs neither a per-source live-block peek nor a write hook.
  8. One acquisition verb: every snapshot source spells it `freeze()`.
     Neither hier/parallel_stream.hpp nor hier/memory_governor.hpp
     declares a `snapshot(` or `acquire(` member, so a second spelling
     of the paper's "A = Σ Ai" step cannot grow back beside freeze().
  9. Retired names: no file under src/ mentions a pattern of the
     RETIRED table (comments included). Each row is a pattern and the
     design that replaced it: a second snapshot verb, the shared-lock
     multi-part source (ParallelStream over an InstanceArray is the one
     multi-part source), the forked sort engines, the second frame and
     matrix writers, the gbx/gbx.hpp umbrella and the raw checkpoint
     container, and the stored per-part snapshot watermark. A deletion
     that must not grow back adds a row.
 10. One output sizing: in gbx/ewise.hpp and gbx/fold.hpp no code calls
     `.reserve(` or `.resize(` on a Dcsr output's `mutable_*()` array,
     directly or through a reference bound to one. Every kernel sizes
     its output with Dcsr::prepare() (recycled capacity reused, 1.5x
     regrowth, no zero-fill), so an exact-fit reserve or a zero-filling
     resize cannot creep back onto a fold.
 11. One thread per sort: gbx/sort.hpp and gbx/fold.hpp mention none of
     `#pragma omp`, `omp.h`, `tsan_omp` or `max_threads` (comments
     included). Every sort and dedup runs on the calling thread, one
     engine per key form (packed-key LSD radix, else std::sort):
     parallelism comes from independent instances, one per lane.
 12. One fork primitive: under src/, `#pragma omp` appears only in
     gbx/parallel.hpp and gbx/tsan_omp.hpp, src/ holds exactly one
     `#pragma omp parallel` (the one in gbx::parallel_for), and
     `OmpRegionGuard` and `GBX_OMP_CAPTURE_HANDOFF` are named only in
     those two files. A kernel that forks calls gbx::parallel_for;
     every other kernel runs on the calling thread, as the paper's
     single-threaded instances do, so neither a hand-rolled region nor
     its TSan boilerplate can grow back.
 13. One codec per byte format: under src/, `kRecordMagic`, `frame_sum`,
     `FrameHeader` and the magic's hex literal appear only in
     store/wal.hpp (comments included), and `payload_as` is defined only
     there. The record frame has one encoder and one parser and its
     payloads one POD decoder, all in store/wal.hpp, so a module cannot
     grow a hand-written frame again. Likewise the matrix container's
     raw section helpers (`write_pod`, `read_pod`, `write_vec`,
     `read_vec_into`) appear only in gbx/serialize.hpp: every other
     persisted byte, the checkpoint included, is a record frame.
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

# Files allowed to use naked `new` (each carries its own justification
# in a comment at the use site).
NAKED_NEW_ALLOWLIST = {
    "src/gbx/scratch.hpp",
}

# Subsystems whose locking must go through gbx/thread_annotations.hpp.
ANNOTATED_SUBSYSTEMS = ("src/hier", "src/store", "src/net", "src/repl",
                        "src/cluster")
RAW_PRIMITIVE_ALLOWLIST = {
    "src/gbx/thread_annotations.hpp",  # the wrapper itself
}

RAW_PRIMITIVE_RE = re.compile(
    r"\bstd::(mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"condition_variable(_any)?|lock_guard|unique_lock|shared_lock|"
    r"scoped_lock)\b"
)
# The one file allowed to bind, listen, and accept.
LISTENER_HOME = "src/net/frame_loop.hpp"
LISTENER_RE = re.compile(r"::(bind|listen|accept4)\(")

# Session-core-only I/O for the router and the WAL shipper (check 5).
LOOP_ONLY = ("src/cluster/", "src/repl/wal_shipper.hpp")
LOOP_EXEMPT = ("src/cluster/scaling_harness.hpp",)
LOOP_BANNED_RE = re.compile(
    r"(\bstd::thread\b|::recv\(|::send\(|::poll\(|\bsend_all\b|"
    r"\bsleep_for\b)")
# ... and in the shipper, a loop or a lock of its own.
SHIPPER = "src/repl/wal_shipper.hpp"
SHIPPER_BANNED_RE = re.compile(
    r"(\bnet::FrameLoop\s+[A-Za-z_]\w*|\bgbx::Mutex\b|\bgbx::CondVar\b)")

# Fig. 2 comparator stores the hierarchy must not build on (check 6).
HIER_DIR = "src/hier/"
COMPARATOR_INCLUDE_RE = re.compile(
    r'#\s*include\s*"(store/(?:btree_store|lsm_store|bloom)\.hpp)"')

# The governor and the source headers it must not include (check 7).
GOVERNOR_HEADER = "src/hier/memory_governor.hpp"
SOURCE_INCLUDE_RE = re.compile(
    r'#\s*include\s*"(hier/(?:hier_matrix|parallel_stream|'
    r'instance_array)\.hpp)"')
WRITE_OBSERVER_RE = re.compile(r"\bset_write_observer\b")

# One acquisition verb (check 8): the sources that must not declare a
# second verb beside freeze().
FREEZE_ONLY_SOURCES = ("src/hier/parallel_stream.hpp", GOVERNOR_HEADER)
# A declaration or definition, not a call through `.`, `->` or `::`.
SECOND_VERB_RE = re.compile(r"(?<![.>:\w])(snapshot|acquire)\s*\(")

# Retired names (check 9): (pattern, what replaced it), matched against
# the raw text of every file under src/, comments included.
RETIRED = [(re.compile(p), why) for p, why in (
    (r"\b(acquire_snapshot|SnapshotEngine|QueryInterface)\b",
     "snapshots are taken with the source's own freeze()"),
    (r"\b(ShardedHier|SharedMutex|ScopedReadLock|ScopedWriteLock|"
     r"update_parallel)\b",
     "ParallelStream over an InstanceArray is the one multi-part source "
     "(feed it by row with InstanceArray::update_rows)"),
    (r"\b(sample_sort|radix_sort_pairs_forked|dedup_sorted_entries_parallel|"
     r"sort_entries_comparison|kParallelSortCutoff)\b",
     "every sort runs on the calling thread (packed-key radix, else "
     "std::sort); the forked engines and their cutoff are gone"),
    (r"\b(serialize_dcsr|frame_payload_offset|end_before_last_)\b",
     "the record frame and the matrix container each have one writer "
     "(store::append_frame, gbx::serialize_rows)"),
    (r'#\s*include\s*"gbx/gbx\.hpp"',
     "the gbx umbrella is gone; include the gbx/*.hpp headers you use"),
    (r"\b(kCkptMagic|HHGRCP01|materialized_level)\b",
     "a checkpoint is record frames over a frozen image (one writer, "
     "hier::detail::write_checkpoint)"),
    (r"\b(SnapshotWatermark|frozen_mark)\b",
     "a part's prefix is its own epoch() and stats().entries_appended; "
     "no watermark is stored beside it"),
    (r"\bgrown\(\)|\b(base_levels_?|restore_base_levels|GrownMerge|"
     r"kMergeSlice|next_piece)\b",
     "every bottom is a chunk list merged in waves (HierMatrix::run_merge); "
     "there is no starting-depth bottom, spare or serial merge to tell apart"),
    (r"\b(bottom_|bottom_chunks|fresh_)\b",
     "every level past kChunkEntries is a chunk list (HierMatrix::chunked_, "
     "the bottom last) with its own fill estimate (Chunked::fresh), read "
     "through chunks(i); no merge state or accessor is the bottom's alone"),
)]

# One output sizing (check 10): the kernels' files, a direct call on a
# mutable_*() array, and a reference bound to one.
SIZING_KERNELS = ("src/gbx/ewise.hpp", "src/gbx/fold.hpp")
DIRECT_SIZING_RE = re.compile(r"\bmutable_\w+\(\)\s*\.\s*(reserve|resize)\(")
OUTPUT_ALIAS_RE = re.compile(r"&\s*(\w+)\s*=\s*[\w.>-]*\bmutable_\w+\(\)")

# One thread per sort (check 11): the sort kernels' files and the OpenMP
# spellings they must not contain.
SERIAL_SORT_KERNELS = ("src/gbx/sort.hpp", "src/gbx/fold.hpp")
SORT_OMP_RE = re.compile(r"(#\s*pragma\s+omp\b|\bomp\.h\b|\btsan_omp\b|"
                         r"\bmax_threads\b)")

# One fork primitive (check 12): the files that may hold `#pragma omp`
# or name the TSan fork bridge, and the one parallel region under src/.
FORK_HOME = {"src/gbx/parallel.hpp", "src/gbx/tsan_omp.hpp"}
OMP_PRAGMA_RE = re.compile(r"#\s*pragma\s+omp\b")
OMP_PARALLEL_RE = re.compile(r"#\s*pragma\s+omp\s+parallel\b")
FORK_BRIDGE_RE = re.compile(r"\b(OmpRegionGuard|GBX_OMP_CAPTURE_HANDOFF)\b")

# One codec per byte format (check 13): the one home of the record
# frame, the names and literal only it may spell, and a payload_as
# definition (a type before the name, not a call).
FRAME_HOME = "src/store/wal.hpp"
FRAME_NAMES_RE = re.compile(r"\b(kRecordMagic|frame_sum|FrameHeader)\b")
FRAME_MAGIC_RE = re.compile(r"0x48485741'?4C30303\d", re.IGNORECASE)
PAYLOAD_AS_DEF_RE = re.compile(r"\b(?!return\b)\w+[\s>]+payload_as\s*\(")
# ... and the one home of the matrix container's raw section helpers.
CONTAINER_HOME = "src/gbx/serialize.hpp"
POD_SECTION_RE = re.compile(r"\b(write_pod|read_pod|write_vec|read_vec_into)\b")

# `new` as an expression: preceded by start/space/punct, followed by a
# type. Excludes placement-new forms used by containers (none in-repo)
# and words containing "new" (renew, new_size, ...).
NAKED_NEW_RE = re.compile(r"(^|[\s(,=])new\b(?!\s*\()")


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literals, preserving line
    structure so reported line numbers stay correct."""
    out = []
    i, n = 0, len(text)
    mode = None  # None | 'line' | 'block' | 'str' | 'chr'
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if mode is None:
            if c == "/" and nxt == "/":
                mode = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                mode = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                mode = "str"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                mode = "chr"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        else:
            if c == "\n":
                out.append("\n")
                if mode == "line":
                    mode = None
                i += 1
                continue
            if mode == "block" and c == "*" and nxt == "/":
                mode = None
                out.append("  ")
                i += 2
                continue
            if mode == "str" and c == "\\":
                out.append("  ")
                i += 2
                continue
            if mode == "str" and c == '"':
                mode = None
                out.append(" ")
                i += 1
                continue
            if mode == "chr" and c == "\\":
                out.append("  ")
                i += 2
                continue
            if mode == "chr" and c == "'":
                mode = None
                out.append(" ")
                i += 1
                continue
            out.append(" ")
        i += 1
    return "".join(out)


def check_pragma_once(path: Path, text: str, errors: list) -> None:
    if path.suffix != ".hpp":
        return
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("//"):
            continue
        if stripped != "#pragma once":
            errors.append(f"{path.relative_to(REPO)}:1: first directive must "
                          f"be '#pragma once' (found {stripped!r})")
        return
    errors.append(f"{path.relative_to(REPO)}:1: missing '#pragma once'")


def check_naked_new(path: Path, code: str, errors: list) -> None:
    rel = str(path.relative_to(REPO))
    if rel in NAKED_NEW_ALLOWLIST:
        return
    for ln, line in enumerate(code.splitlines(), 1):
        if NAKED_NEW_RE.search(line):
            errors.append(
                f"{rel}:{ln}: naked `new` — own it via a container or "
                f"smart pointer (allowlist: scripts/lint_invariants.py)")


def check_raw_primitives(path: Path, code: str, errors: list) -> None:
    rel = str(path.relative_to(REPO))
    if rel in RAW_PRIMITIVE_ALLOWLIST:
        return
    if not rel.startswith(ANNOTATED_SUBSYSTEMS):
        return
    for ln, line in enumerate(code.splitlines(), 1):
        m = RAW_PRIMITIVE_RE.search(line)
        if m:
            errors.append(
                f"{rel}:{ln}: raw std::{m.group(1)} in an annotated "
                f"subsystem — use gbx::Mutex / gbx::CondVar / "
                f"gbx::ScopedLock "
                f"(gbx/thread_annotations.hpp)")


def check_listeners(path: Path, code: str, errors: list) -> None:
    rel = str(path.relative_to(REPO))
    if rel == LISTENER_HOME:
        return
    for ln, line in enumerate(code.splitlines(), 1):
        m = LISTENER_RE.search(line)
        if m:
            errors.append(
                f"{rel}:{ln}: ::{m.group(1)}() outside {LISTENER_HOME} — "
                f"take listeners and accepted sockets from the session "
                f"core (net::FrameLoop)")


def check_loop_only_io(path: Path, code: str, errors: list) -> None:
    rel = str(path.relative_to(REPO))
    if not rel.startswith(LOOP_ONLY) or rel in LOOP_EXEMPT:
        return
    for ln, line in enumerate(code.splitlines(), 1):
        m = LOOP_BANNED_RE.search(line)
        if m:
            errors.append(
                f"{rel}:{ln}: {m.group(1)} in a session-core handler — "
                f"the router and the WAL shipper run on the core's loop "
                f"thread and its nonblocking I/O (net/frame_loop.hpp)")
        m = SHIPPER_BANNED_RE.search(line) if rel == SHIPPER else None
        if m:
            errors.append(
                f"{rel}:{ln}: {m.group(1)} in the WAL shipper — it owns no "
                f"loop and no lock: it is a handler on the ingest server's "
                f"loop (check 5)")


def check_hier_includes(path: Path, text: str, errors: list) -> None:
    rel = str(path.relative_to(REPO))
    if not rel.startswith(HIER_DIR):
        return
    for ln, line in enumerate(text.splitlines(), 1):
        m = COMPARATOR_INCLUDE_RE.search(line)
        if m:
            errors.append(
                f"{rel}:{ln}: includes {m.group(1)} under {HIER_DIR} — "
                f"the B-tree, LSM and bloom stores are Fig. 2 comparator "
                f"models; demoted runs index their own rows (hier/tier.hpp)")


def check_governor_source_free(path: Path, text: str, code: str,
                               errors: list) -> None:
    rel = str(path.relative_to(REPO))
    if rel == GOVERNOR_HEADER:
        for ln, line in enumerate(text.splitlines(), 1):
            m = SOURCE_INCLUDE_RE.search(line)
            if m:
                errors.append(
                    f"{rel}:{ln}: includes {m.group(1)} — the governor "
                    f"classifies against the image it just froze and "
                    f"needs no source type")
    for ln, line in enumerate(code.splitlines(), 1):
        if WRITE_OBSERVER_RE.search(line):
            errors.append(
                f"{rel}:{ln}: set_write_observer — the governor acts only "
                f"at freeze() and enforce(); sources have no write hook")


def check_one_acquisition_verb(path: Path, code: str, errors: list) -> None:
    rel = str(path.relative_to(REPO))
    if rel not in FREEZE_ONLY_SOURCES:
        return
    for ln, line in enumerate(code.splitlines(), 1):
        m = SECOND_VERB_RE.search(line)
        if m:
            errors.append(
                f"{rel}:{ln}: declares {m.group(1)}() — freeze() is the one "
                f"acquisition verb of a snapshot source")


def check_retired_names(path: Path, text: str, errors: list) -> None:
    rel = str(path.relative_to(REPO))
    for ln, line in enumerate(text.splitlines(), 1):
        for pattern, why in RETIRED:
            m = pattern.search(line)
            if m:
                errors.append(f"{rel}:{ln}: {m.group(0)} — {why}; the name "
                              f"is retired (check 9)")


def check_one_output_sizing(path: Path, code: str, errors: list) -> None:
    rel = str(path.relative_to(REPO))
    if rel not in SIZING_KERNELS:
        return
    aliases = set(OUTPUT_ALIAS_RE.findall(code))
    alias_re = (re.compile(r"\b(" + "|".join(sorted(aliases)) +
                           r")\s*\.\s*(reserve|resize)\(")
                if aliases else None)
    for ln, line in enumerate(code.splitlines(), 1):
        m = DIRECT_SIZING_RE.search(line) or (alias_re and
                                              alias_re.search(line))
        if m:
            errors.append(
                f"{rel}:{ln}: sizes a Dcsr output array with "
                f".{m.group(m.lastindex)}() — size kernel output with "
                f"Dcsr::prepare() (reuses capacity, 1.5x regrowth, no "
                f"zero-fill)")


def check_one_thread_per_sort(path: Path, text: str, errors: list) -> None:
    rel = str(path.relative_to(REPO))
    if rel not in SERIAL_SORT_KERNELS:
        return
    for ln, line in enumerate(text.splitlines(), 1):
        m = SORT_OMP_RE.search(line)
        if m:
            errors.append(
                f"{rel}:{ln}: {m.group(1)} in a sort kernel — sorts run on "
                f"the calling thread; parallelism comes from independent "
                f"instances, one per lane")


def check_one_fork_primitive(path: Path, code: str, errors: list,
                             regions: list) -> None:
    rel = str(path.relative_to(REPO))
    for ln, line in enumerate(code.splitlines(), 1):
        if OMP_PARALLEL_RE.search(line):
            regions.append(f"{rel}:{ln}")
        if rel in FORK_HOME:
            continue
        m = OMP_PRAGMA_RE.search(line) or FORK_BRIDGE_RE.search(line)
        if m:
            errors.append(
                f"{rel}:{ln}: {m.group(0)} outside gbx/parallel.hpp and "
                f"gbx/tsan_omp.hpp — a kernel forks only through "
                f"gbx::parallel_for (scripts/lint_invariants.py check 12)")


def check_one_codec(path: Path, text: str, code: str, errors: list) -> None:
    rel = str(path.relative_to(REPO))
    if rel != CONTAINER_HOME:
        for ln, line in enumerate(text.splitlines(), 1):
            m = POD_SECTION_RE.search(line)
            if m:
                errors.append(
                    f"{rel}:{ln}: {m.group(0)} outside gbx/serialize.hpp — "
                    f"persist bytes as record frames (store::RecordLogWriter, "
                    f"store::payload_as) or gbx::serialize (check 13)")
    if rel == FRAME_HOME:
        return
    for ln, line in enumerate(text.splitlines(), 1):
        m = FRAME_NAMES_RE.search(line) or FRAME_MAGIC_RE.search(line)
        if m:
            errors.append(
                f"{rel}:{ln}: {m.group(0)} outside store/wal.hpp — write "
                f"frames with store::append_frame / RecordLogWriter and read "
                f"them with store::parse_frame (check 13)")
    for ln, line in enumerate(code.splitlines(), 1):
        if PAYLOAD_AS_DEF_RE.search(line):
            errors.append(
                f"{rel}:{ln}: defines payload_as outside store/wal.hpp — "
                f"decode record payloads with store::payload_as (check 13)")


def main() -> int:
    errors: list = []
    regions: list = []
    for path in sorted(SRC.rglob("*")):
        if path.suffix not in (".hpp", ".cpp"):
            continue
        text = path.read_text(encoding="utf-8")
        code = strip_comments_and_strings(text)
        check_pragma_once(path, text, errors)
        check_naked_new(path, code, errors)
        check_raw_primitives(path, code, errors)
        check_listeners(path, code, errors)
        check_loop_only_io(path, code, errors)
        check_hier_includes(path, text, errors)
        check_governor_source_free(path, text, code, errors)
        check_one_acquisition_verb(path, code, errors)
        check_retired_names(path, text, errors)
        check_one_output_sizing(path, code, errors)
        check_one_thread_per_sort(path, text, errors)
        check_one_fork_primitive(path, code, errors, regions)
        check_one_codec(path, text, code, errors)
    if len(regions) != 1:
        errors.append(
            f"src: {len(regions)} `#pragma omp parallel` region(s) "
            f"({', '.join(regions)}), expected exactly one, in "
            f"gbx::parallel_for")
    for e in errors:
        print(e, file=sys.stderr)
    if errors:
        print(f"lint_invariants: {len(errors)} violation(s)", file=sys.stderr)
        return 1
    print("lint_invariants: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
