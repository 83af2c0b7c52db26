//! Architecture lints: one test per rule that keeps a retired design from
//! coming back. Each runs its shell pipeline (`grep`, `sed`) through
//! `sh -c` from the repository root and fails, printing the offending
//! lines, when the pipeline exits non-zero.
//!
//! The pipelines are kept verbatim as they were written; several search
//! `tests/`, so this file spells their patterns with a bracketed letter
//! (`[x]`), which matches the letter but not the pattern's own text.

use std::process::Command;

/// Run `script` with `sh -c` in the repository root; it must exit 0.
fn lint(script: &str) {
    let out = Command::new("sh")
        .arg("-c")
        .arg(script)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("sh runs");
    assert!(
        out.status.success(),
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Configuration is what QueryContext / ParallelConfig say. The engine
/// reads the environment in exactly three places — BDCC_SPILL (the
/// forced-spill lever of CI's release cells), BDCC_SPILL_DIR (a
/// path) and BDCC_INJECT (the fault harness) — and a new read
/// anywhere else in the engine crates fails here.
#[test]
fn no_ambient_configuration() {
    lint(
        r##"
if grep -rn "env::var" crates/exec/src crates/storage/src crates/pool/src \
      crates/core/src crates/catalog/src crates/obs/src \
    | grep -v -e '^crates/exec/src/govern.rs:' \
              -e '^crates/storage/src/spill.rs:' \
              -e '^crates/pool/src/inject.rs:'; then
  echo "env::var outside govern.rs / spill.rs / inject.rs (see above)" >&2
  exit 1
fi
"##,
    );
}

/// One set of query limits: the Governor (crates/exec/src/govern.rs)
/// holds a query's budget, its spill mode and the pressure questions
/// the spilling operators ask, and the scan, hash join and hash
/// aggregate take the query's limits, tracker and metrics in one
/// OpEnv. A second handle on the budget, a context rebuilding it, or
/// a per-field setter on those operators coming back fails here.
/// (The brackets keep this file out of its own search pattern.)
#[test]
fn one_set_of_query_limits() {
    lint(
        r##"
if grep -rnE "struct Memory[B]roker|fn rebuild_[b]roker|fn with_[b]roker" crates tests src examples \
    || grep -nE "fn with_(gov[e]rnor|met[r]ics)" crates/exec/src/ops/agg.rs \
          crates/exec/src/ops/join.rs crates/exec/src/ops/scan.rs; then
  echo "a second handle on the query's limits is back (see above); see crates/exec/src/govern.rs and ops::OpEnv" >&2
  exit 1
fi
"##,
    );
}

/// One source of set-up threads: generation, the PK build and the BDCC
/// build take their threads only from bdcc-pool's scoped fan-out
/// (bdcc_pool::scoped) — one table per task in schema design, one column
/// per task in every table build and gather — at the machine's width. A
/// thread of their own in the storage, core, catalog or TPC-H crates
/// fails here.
#[test]
fn one_thread_pool_for_set_up() {
    lint(
        r##"
if grep -rnE "thread::(spawn|scope|Builder)" crates/storage/src crates/core/src \
      crates/catalog/src crates/tpch/src; then
  echo "set-up threads come only from bdcc_pool::scoped, bdcc-pool's scoped fan-out (see above)" >&2
  exit 1
fi
"##,
    );
}

/// One fan-out shape per job: set-up runs on bdcc_pool::scoped (scoped
/// threads), a query on OrderedStream (the worker pool). The blocking pool
/// fan-out, its type-erased scope core and its thread lending coming back
/// to the pool, or set-up reaching for the worker pool, fails here.
/// (The brackets keep this file out of its own search pattern.)
#[test]
fn one_pool_fan_out_shape() {
    lint(
        r##"
if grep -rnE "fn scope_[r]un|Scope[C]ore|fn pop_[l]ent|fn drain_[s]cope" crates/pool/src \
    || grep -rn "Worker[P]ool" crates/storage/src crates/core/src; then
  echo "a second pool fan-out shape is back, or set-up uses the worker pool (see above); set-up fans out on bdcc_pool::scoped" >&2
  exit 1
fi
"##,
    );
}

/// One place creates and reads spill files: the partition-spill core
/// (crates/exec/src/spill.rs) owns partition state, freezing,
/// recursion, accounting and file lifetime for every spilling
/// operator, and a file is read back only through a core Leaf
/// (for_each_chunk / into_chunks), which books the restore; a second
/// driver or reader beside it fails here.
#[test]
fn one_spill_driver() {
    lint(
        r##"
if grep -rn -e "SpillWriter::create" -e "enum PartState" -e "SpillHandle" \
      -e "next_columns" crates/exec/src \
    | grep -v '^crates/exec/src/spill.rs:'; then
  echo "spill files are created and read in crates/exec/src/spill.rs only (see above)" >&2
  exit 1
fi
"##,
    );
}

/// One leaf operator reads stored tables: ops::scan::Scan walks an
/// ordered list of runs (selected BDCC groups, or the MinMax blocks of a
/// Plain / PK table) on the calling thread, and a morsel is a range of
/// run indices. A second leaf scan, an access-path enum or a morsel that
/// knows which kind of scan it belongs to fails here.
/// (The brackets keep this file out of its own search pattern.)
#[test]
fn one_leaf_scan() {
    lint(
        r##"
if grep -rnE "struct (Plain|Bdcc)[S]can|enum Scan[K]ind|Morsel::[B]locks" crates/exec/src; then
  echo "a second leaf scan is back (see above); crates/exec/src/ops/scan.rs owns the one" >&2
  exit 1
fi
"##,
    );
}

/// One morsel fan-out: crates/exec/src/parallel/ runs a plan fragment
/// per morsel on an ordered stream and releases the results in morsel
/// order, for the partial hash aggregate and the co-cluster sandwich
/// aggregate alike. A blocking fan-out in the executor, or an ordered
/// stream opened outside parallel/, fails here.
/// (The brackets keep this file out of its own search pattern.)
#[test]
fn one_morsel_fan_out() {
    lint(
        r##"
if grep -rn "scope_[r]un" crates/exec/src \
    || grep -rn "Ordered[S]tream" crates/exec/src | grep -v '^crates/exec/src/parallel/'; then
  echo "a second fan-out is back (see above); crates/exec/src/parallel/ owns the one" >&2
  exit 1
fi
"##,
    );
}

/// No streamed leaf: every scan walks its runs inline, and what fans out
/// is an aggregate directly over a leaf, folding each morsel into one
/// partial or one co-cluster's finished groups. A leaf that streams its
/// morsels' batches through the fan-out — under a join it kept two
/// morsels a thread of decoded columns charged for every live leaf —
/// coming back fails here.
/// (The brackets keep this file out of its own search pattern.)
#[test]
fn no_streamed_leaf() {
    lint(
        r##"
if grep -rnE "Streamed[S]can|fn leaf_[s]can|FanOut<Vec<[B]atch>>" crates/exec/src; then
  echo "a streamed leaf is back (see above); only leaf aggregates fan out (crates/exec/src/parallel/)" >&2
  exit 1
fi
"##,
    );
}

/// One hash join, one serial aggregate: a sandwich join is
/// ops::join::HashJoin indexing one right co-cluster at a time while
/// the left streams, and streaming / sandwich aggregation are
/// HashAggregate flushing when its run columns change. A second join
/// beside it, its group reader, or a second serial aggregate fails here.
/// (The brackets keep this file out of its own search pattern.)
#[test]
fn one_hash_join() {
    lint(
        r##"
if grep -rnE "struct Sandwich[H]ashJoin|struct Group[R]eader|fn join_[g]roups|struct (Streaming|Sandwich)[A]ggregate" crates/exec/src; then
  echo "a second join or serial aggregate is back (see above); ops/join.rs and ops/agg.rs own the one" >&2
  exit 1
fi
"##,
    );
}

/// One join index, one sort: a hash join indexes its build side as one
/// flat table at every width, and ops::sort::Sort is the sort at every
/// width. A partitioned
/// index, its row-id scatter or a second sort operator fails here.
/// (The brackets keep this file out of its own search pattern.)
#[test]
fn one_join_index_one_sort() {
    lint(
        r##"
if grep -rnE "struct Parallel[S]ort|fn hash_partition_[r]ows|struct Join[T]able" crates/exec/src \
    || grep -nE "partition_[b]its" crates/exec/src/hash.rs; then
  echo "a partitioned join index or a second sort is back (see above); hash.rs and ops/sort.rs own the one" >&2
  exit 1
fi
"##,
    );
}

/// One probe loop: a hash join probes one batch at a time on the
/// calling thread at every width, so the only fan-outs are the leaf
/// aggregates'. Probe morsels, the
/// probe-output assembly fan-out, the match-list merge or a width on
/// the join coming back fails here. (join_spill.rs's "join-probe" is
/// a spill-core label, not a pool job, and is not matched.)
/// (The brackets keep this file out of its own search pattern.)
#[test]
fn one_probe_loop() {
    lint(
        r##"
if grep -rnE '"join-[a]ssemble"|fn split_[r]ows|concat_match_[l]ists' crates/exec/src \
    || grep -nE "fn with_[p]arallel" crates/exec/src/ops/join.rs \
    || [ -e crates/exec/src/parallel/merge.rs ]; then
  echo "a join fans out again (see above); ops/join.rs probes serially, parallel/ owns the leaf-aggregate fan-outs" >&2
  exit 1
fi
"##,
    );
}

/// One spilling aggregate: when the query spills, the hash aggregate
/// keeps its resident groups and routes the rows of new ones through
/// the partition-spill core (ops/agg.rs over crate::spill), over any
/// input. A second aggregation spill path, its fan-out site or its
/// partition-count helpers coming back fails here.
/// (The brackets keep this file out of its own search pattern.)
#[test]
fn one_spilling_aggregate() {
    lint(
        r##"
if grep -rnE "fn run_radix_[s]pill|agg-radix-[p]1|fn partition_bits_[f]or" crates/exec/src \
    || [ -e crates/exec/src/parallel/spill.rs ]; then
  echo "a second aggregation spill path is back (see above); ops/agg.rs spills through crates/exec/src/spill.rs" >&2
  exit 1
fi
"##,
    );
}

/// Plan time looks row maps up, it never builds them: which bin a host
/// row falls in and which row a foreign key references are resolved
/// once, when bdcc_scheme builds the plan index (scheme.rs); a resolver
/// call anywhere else in the executor would put a hash-map build over
/// a table back on every query's plan.
#[test]
fn row_maps_are_built_at_scheme_build_time() {
    lint(
        r##"
if grep -rn -e "resolve_host_rows" -e "host_bin_numbers" -e "FkSteps::resolve" \
      crates/exec/src \
    | grep -v '^crates/exec/src/scheme.rs:'; then
  echo "row→bin / row→row maps are built in crates/exec/src/scheme.rs only (see above)" >&2
  exit 1
fi
"##,
    );
}

/// Width is a value and aggregation has no strategy knob: the engine
/// passes ParallelConfig by value / reference (threads: 1 is serial),
/// the one Option lives on the public ServerConfig in serve.rs, and
/// the retired three-state pin must not come back under any spelling.
/// (The bracket keeps this file out of its own search pattern.)
#[test]
fn no_optional_width_no_strategy_knob() {
    lint(
        r##"
if grep -rnE "Option<&?ParallelConfig>" crates/exec/src \
    | grep -v '^crates/exec/src/serve.rs:'; then
  echo "Option<ParallelConfig> outside serve.rs (see above)" >&2
  exit 1
fi
if grep -rn "agg[_]radix" crates tests src examples; then
  echo "the aggregation strategy pin is gone; the spill mode selects (see above)" >&2
  exit 1
fi
"##,
    );
}

/// A string column is one buffer plus offsets (StrVec, owned by
/// crates/storage/src/column.rs): no String per value on any scan,
/// join, sort or spill path. The old payload — or an accessor that
/// hands one out — reappearing in the storage or execution crates
/// fails here; tests/alloc_budget.rs holds the counts that follow
/// from it.
#[test]
fn one_string_column_representation() {
    lint(
        r##"
if grep -rnE "Str\(Vec<String>\)|Result<&\[String\]>" crates/storage/src crates/exec/src; then
  echo "a Vec<String> column payload is back (see above); string columns are StrVec" >&2
  exit 1
fi
"##,
    );
}

/// One pool queue: the worker pool keeps one FIFO job queue with
/// claim gates, one labeled entry point (OrderedStream::spawn), and the
/// executor calls it
/// directly. Per-worker deques, their round-robin seeding, unlabeled
/// twins or an executor fan-out façade coming back fails here.
/// (The brackets keep this file out of its own search pattern.)
#[test]
fn one_pool_queue() {
    lint(
        r##"
if grep -nE "locals|seed_[c]ursor|fn scope_run_[l]abeled|fn spawn_[l]abeled" crates/pool/src/pool.rs \
    || grep -rnE "fn run_[t]asks" crates/exec/src \
    || [ -e crates/exec/src/parallel/pool.rs ]; then
  echo "a second queue, an unlabeled fan-out or an executor façade is back (see above); crates/pool/src/pool.rs owns the one queue" >&2
  exit 1
fi
"##,
    );
}

/// One key codec, one LIKE matcher: the aggregation group table
/// compares a row's key words (hash.rs's group codec) and confirms only
/// a long string against its stored key; every LIKE — scan kernel,
/// residual kernel, interpreter — runs the LikeMatcher compiled once
/// per site. A per-cell key compare inside GroupTable, or a per-row
/// substring search on a pattern literal, coming back fails here.
/// (The brackets keep this file out of its own search pattern.)
#[test]
fn one_key_codec_one_like_matcher() {
    lint(
        r##"
if sed -n '/^impl GroupTable/,/^}/p' crates/exec/src/ops/agg.rs | grep -nE "cell_[e]q|key_[e]q" \
    || grep -rnE "\.(find|contains|starts_with|ends_with)\([a-z_]+\.as_[s]tr\(\)\)" crates/exec/src; then
  echo "a per-cell group-key compare or a per-row LIKE search is back (see above); ops/agg.rs compares key words, expr.rs's LikeMatcher matches" >&2
  exit 1
fi
"##,
    );
}

/// One group-by pass: a hash aggregate keeps one row count per group
/// (COUNT and every AVG read it), folds every float SUM / AVG of a
/// batch in one row loop over the fused compensated sums, and builds
/// string key words from the column's buffer and offsets. A count per
/// AVG, a string made per key value, or a float sum folded once per
/// aggregate coming back fails here.
/// (The brackets keep this file out of its own search pattern.)
#[test]
fn one_group_by_pass() {
    lint(
        r##"
if grep -nE "Avg\(FloatSums, Vec<i64>\)" crates/exec/src/ops/agg.rs \
    || sed -n '/^pub(crate) fn group_key_words/,/^}/p' crates/exec/src/hash.rs | grep -n "iter_[r]ange" \
    || sed -n '/^impl Acc/,/^}/p' crates/exec/src/ops/agg.rs | grep -nE "sums\.[a]dd\(|FloatSums::[a]dd"; then
  echo "a second pass per aggregate is back (see above); ops/agg.rs folds a batch in one pass" >&2
  exit 1
fi
"##,
    );
}

/// One key directory: a dense join key or group key is indexed
/// directly (slot = key word − minimum) as a mode of hash.rs's
/// JoinIndex and of ops/agg.rs's GroupTable, chosen from the keys'
/// range against the hashed layout's size. A second index type for
/// dense keys, or a std map from integer keys to group ids inside the
/// group table, coming back fails here.
/// (The brackets keep this file out of its own search pattern.)
#[test]
fn one_key_directory() {
    lint(
        r##"
if grep -rnE "struct (Direct[A-Za-z0-9_]*[I]ndex|Dense[A-Za-z0-9_]*[T]able|[A-Za-z0-9_]*D[i]r)\b" crates/exec/src \
    || sed -n '/^impl GroupTable/,/^}/p' crates/exec/src/ops/agg.rs | grep -nE "HashMap<\(?[iu]6[4]"; then
  echo "a second key directory is back (see above); JoinIndex and GroupTable own direct indexing" >&2
  exit 1
fi
"##,
    );
}

/// One scan predicate path: every scan evaluates its sargable
/// predicates in enc.rs's ScanKernel — MinMax pruning, encoded blocks,
/// raw values, float columns and unencoded tables alike — and
/// enc::compile is the one place a column predicate becomes a typed
/// test. The scan's slice-then-residual fallback, the kernel's
/// encodings gate, restriction's interpreter fallback, or a compile
/// arm that turns float columns away coming back fails here.
/// (The brackets keep this file out of its own search pattern.)
#[test]
fn one_scan_predicate_path() {
    lint(
        r##"
if grep -nE "FilterProgra[m]|predicates_to_exp[r]" crates/exec/src/ops/scan.rs \
    || grep -n "has_encoding[s]" crates/exec/src/enc.rs \
    || grep -n "ColTest::Row[s]" crates/exec/src/restrict.rs \
    || grep -nE "DataType::Floa[t] => (return )?None" crates/exec/src/enc.rs \
          crates/exec/src/kernel.rs crates/exec/src/restrict.rs; then
  echo "a second scan predicate path is back (see above); enc.rs's ScanKernel evaluates every scan predicate" >&2
  exit 1
fi
"##,
    );
}

/// No hidden switches: every table build encodes (a test that needs raw
/// storage derives it with StoredTable::without_encodings), and a
/// compiled filter runs its conjuncts in the order compile fixed. A
/// process-wide encode flag, its test pins, or the filter's adaptive
/// reorderer (warm-up, re-ordering, the lock around its order) coming
/// back fails here.
/// (The brackets keep this file out of its own search pattern.)
#[test]
fn no_hidden_switches() {
    lint(
        r##"
if grep -rnE "set_encode_[e]nabled|ENCODE_[E]NABLED|build_with_[e]ncoding|ENCODE_[P]IN" \
      crates tests src examples \
    || grep -nE "WARMUP_[R]OWS|maybe_[r]eorder|Mutex<Vec<u3[2]>>" crates/exec/src/kernel.rs; then
  echo "a hidden switch is back (see above); tables always encode and FilterProgram::compile fixes the order" >&2
  exit 1
fi
"##,
    );
}

/// One property pass: the planner derives every node's BDCC instance
/// classes and PK column order once, bottom-up (Planner::derive), and
/// build, build_join and build_aggregate only read them. A recursive
/// analysis called from build — the retired availability analysis,
/// order analysis or scan-id table lookup — coming back fails here.
/// (The brackets keep this file out of its own search pattern.)
#[test]
fn one_property_pass() {
    lint(
        r##"
if grep -nE "fn (a[v]ail|col_[o]rder|scan_[t]ables)\b" crates/exec/src/planner.rs; then
  echo "a second planner analysis is back (see above); Planner::derive owns the property pass" >&2
  exit 1
fi
"##,
    );
}

/// One stored copy of every row: Algorithm 1 stores each source row of
/// a BDCC table once, and the count table's groups tile the table in
/// key order. The small-group copy to a tail region (the paper's page-
/// cache aftercare; this engine has no page cache), its switch, its
/// per-group flag or a stored-vs-logical row count coming back fails
/// here.
/// (The brackets keep this file out of its own search pattern.)
#[test]
fn one_stored_copy_of_every_row() {
    lint(
        r##"
if grep -rnE "consolidate_small_[g]roups|[r]elocated|logical_[r]ows|mod [r]eorg" crates tests src examples; then
  echo "a second stored copy of BDCC rows is back (see above); crates/core/src/bdcc_table.rs stores each row once" >&2
  exit 1
fi
"##,
    );
}
