#!/usr/bin/env bash
# Docs-consistency lint: every tuning knob in CfsOptions (src/core/cfs.h)
# must appear in README.md's configuration table, so the shipped docs can't
# silently drift from the code. Fails listing the missing fields.
set -euo pipefail
cd "$(dirname "$0")/.."

# Collect CfsOptions field names: lines like "  <type> <name> = ...;" or
# "  <type> <name>;" inside the struct, skipping comments and nested-option
# struct members (TafDbOptions etc. are documented by their own headers, but
# the fields themselves still appear as knobs and belong in the table).
fields=$(awk '/^struct CfsOptions \{/,/^\};/' src/core/cfs.h |
  grep -E '^\s+[A-Za-z_][A-Za-z0-9_:<>]*\s+[a-z_]+(\s*=.*)?;\s*(//.*)?$' |
  grep -v '^\s*//' |
  sed -E 's/^\s*[A-Za-z_][A-Za-z0-9_:<>]*\s+([a-z_]+).*/\1/')

if [[ -z "$fields" ]]; then
  echo "docs_lint: failed to extract CfsOptions fields from src/core/cfs.h" >&2
  exit 1
fi

missing=0
for field in $fields; do
  if ! grep -q "\`$field\`" README.md; then
    echo "docs_lint: CfsOptions::$field is not documented in README.md" >&2
    missing=1
  fi
done

if [[ "$missing" -ne 0 ]]; then
  echo "docs_lint: add the missing knob(s) to README.md's CfsOptions table" >&2
  exit 1
fi
echo "docs_lint: README.md covers all $(echo "$fields" | wc -l) CfsOptions knobs"

# Every registered lock class — mutexes constructed per the single-line
# convention  Mutex mu_{"subsystem.name", rank};  (thread_annotations.h) —
# must appear in DESIGN.md's "Concurrency invariants" rank table with the
# same rank, and every never-across-rpc row there must be such a class, so
# the documented hierarchy can't drift from the code in either direction.
locks=$(grep -rhoE '(Mutex|SharedMutex)[[:space:]]+[A-Za-z_]+\{"[a-z._]+",[[:space:]]*[0-9]+\}' \
          src/ --include='*.h' --include='*.cc' |
        sed -E 's/.*\{"([a-z._]+)",[[:space:]]*([0-9]+)\}/\1 \2/' | sort -u)

if [[ -z "$locks" ]]; then
  echo "docs_lint: failed to extract lock registrations from src/" >&2
  exit 1
fi

missing=0
while read -r name rank; do
  # A table row: | `name` | rank | ... (whitespace-flexible).
  if ! grep -qE "^\|\s*\`$name\`\s*\|\s*$rank\s*\|" DESIGN.md; then
    echo "docs_lint: lock class \"$name\" (rank $rank) is not in DESIGN.md's rank table" >&2
    missing=1
  fi
  # Every mutex class is never-across-rpc (only logical scope classes may
  # be allowed-across-rpc; see below); its policy column must say so.
  if ! grep -qE "^\|\s*\`$name\`\s*\|\s*$rank\s*\|\s*never-across-rpc\s*\|" DESIGN.md; then
    echo "docs_lint: mutex class \"$name\" must be documented never-across-rpc in DESIGN.md" >&2
    missing=1
  fi
done <<< "$locks"

# Reverse direction: every never-across-rpc row in the table must still be
# a registered mutex class with that rank, so a deleted or re-ranked lock
# cannot leave a stale row behind.
doc_mutexes=$(grep -oE '^\|\s*`[a-z._]+`\s*\|\s*[0-9]+\s*\|\s*never-across-rpc\s*\|' DESIGN.md |
              sed -E 's/^\|\s*`([a-z._]+)`\s*\|\s*([0-9]+).*/\1 \2/' | sort -u)
while read -r name rank; do
  [[ -z "$name" ]] && continue
  if ! grep -qxF "$name $rank" <<< "$locks"; then
    echo "docs_lint: DESIGN.md row \"$name\" (rank $rank) has no Mutex/SharedMutex registration in src/" >&2
    missing=1
  fi
done <<< "$doc_mutexes"

if [[ "$missing" -ne 0 ]]; then
  echo "docs_lint: make DESIGN.md's Concurrency invariants table match the lock classes registered in src/" >&2
  exit 1
fi
echo "docs_lint: DESIGN.md rank table and src/ agree on all $(echo "$locks" | wc -l) lock classes"

# Logical scope classes (no mutex object; registered through
# lock_order::RegisterClass with kAllowedAcrossRpc) carry a greppable
# marker comment at the registration site:
#     // cs-policy: allowed-across-rpc <class.name>
# Cross-check both directions: every marker has a matching
# allowed-across-rpc table row, and every allowed-across-rpc row in the
# table has a marker (so neither code nor docs can drift).
allowed_src=$(grep -rhoE 'cs-policy: allowed-across-rpc [a-z._]+' \
                src/ --include='*.h' --include='*.cc' |
              awk '{print $3}' | sort -u)
allowed_doc=$(grep -oE '^\|\s*`[a-z._]+`\s*\|\s*[0-9]+\s*\|\s*allowed-across-rpc\s*\|' DESIGN.md |
              sed -E 's/^\|\s*`([a-z._]+)`.*/\1/' | sort -u)

if [[ -z "$allowed_src" ]]; then
  echo "docs_lint: no cs-policy markers found in src/ (expected at least lockmgr.row)" >&2
  exit 1
fi
if [[ "$allowed_src" != "$allowed_doc" ]]; then
  echo "docs_lint: allowed-across-rpc classes disagree between src/ markers and DESIGN.md:" >&2
  diff <(echo "$allowed_src") <(echo "$allowed_doc") >&2 || true
  exit 1
fi
echo "docs_lint: DESIGN.md policy column matches $(echo "$allowed_src" | wc -l) allowed-across-rpc scope class(es)"

# Span taxonomy: the OpTrace phase names (PhaseName, metrics.cc) and the
# trace categories (CategoryName, trace_event.cc) must match DESIGN.md
# §10's taxonomy table, in BOTH directions — a phase/category added in
# code needs a documented meaning, and a documented row must still exist
# in code.
code_phases=$(awk '/^std::string_view PhaseName/,/^\}/' src/common/metrics.cc |
              grep -oE 'return "[a-z0-9_]+"' | sed -E 's/return "(.*)"/\1/' |
              grep -v '^unknown$' | sort -u)
code_cats=$(awk '/CategoryName\(Category/,/^\}/' src/common/trace_event.cc |
            grep -oE 'return "[a-z0-9_]+"' | sed -E 's/return "(.*)"/\1/' |
            grep -v '^unknown$' | sort -u)
doc_phases=$(grep -oE '^\|\s*`[a-z0-9_]+`\s*\|\s*phase\s*\|' DESIGN.md |
             sed -E 's/^\|\s*`([a-z0-9_]+)`.*/\1/' | sort -u)
doc_cats=$(grep -oE '^\|\s*`[a-z0-9_]+`\s*\|\s*category\s*\|' DESIGN.md |
           sed -E 's/^\|\s*`([a-z0-9_]+)`.*/\1/' | sort -u)

if [[ -z "$code_phases" || -z "$code_cats" ]]; then
  echo "docs_lint: failed to extract phase/category names from src/common" >&2
  exit 1
fi
if [[ "$code_phases" != "$doc_phases" ]]; then
  echo "docs_lint: OpTrace phases disagree between metrics.cc and DESIGN.md §10:" >&2
  diff <(echo "$code_phases") <(echo "$doc_phases") >&2 || true
  exit 1
fi
if [[ "$code_cats" != "$doc_cats" ]]; then
  echo "docs_lint: trace categories disagree between trace_event.cc and DESIGN.md §10:" >&2
  diff <(echo "$code_cats") <(echo "$doc_cats") >&2 || true
  exit 1
fi
echo "docs_lint: DESIGN.md §10 covers all $(echo "$code_phases" | wc -l) phases and $(echo "$code_cats" | wc -l) trace categories"

# Virtual-time documentation (DESIGN.md §11): every LatencyMode enumerator
# in src/net/simnet.h must appear in the "Virtual time and determinism"
# section, so the documented mode matrix can't drift from the enum.
modes=$(awk '/^enum class LatencyMode \{/,/^\};/' src/net/simnet.h |
        grep -oE '^\s*k[A-Za-z]+' | tr -d ' ' | sort -u)
if [[ -z "$modes" ]]; then
  echo "docs_lint: failed to extract LatencyMode enumerators from src/net/simnet.h" >&2
  exit 1
fi
section=$(awk '/^## 11\. Virtual time/,/^## 12\./' DESIGN.md)
if [[ -z "$section" ]]; then
  echo "docs_lint: DESIGN.md has no '## 11. Virtual time' section" >&2
  exit 1
fi
missing=0
for mode in $modes; do
  if ! grep -q "\`$mode\`" <<< "$section"; then
    echo "docs_lint: LatencyMode::$mode is not documented in DESIGN.md §11" >&2
    missing=1
  fi
done
if [[ "$missing" -ne 0 ]]; then
  echo "docs_lint: add the missing latency mode(s) to DESIGN.md §11's mode matrix" >&2
  exit 1
fi
echo "docs_lint: DESIGN.md §11 covers all $(echo "$modes" | wc -l) latency modes"

# Every CFS_SIM* env knob read anywhere in bench/ must appear in
# README.md's simulation knob table (same rule as CfsOptions fields).
sim_knobs=$(grep -rhoE 'CFS_SIM[A-Z0-9_]*' bench/ | sort -u)
if [[ -z "$sim_knobs" ]]; then
  echo "docs_lint: failed to extract CFS_SIM* knobs from bench/" >&2
  exit 1
fi
missing=0
for knob in $sim_knobs; do
  if ! grep -q "\`$knob\`" README.md; then
    echo "docs_lint: simulation knob $knob is not documented in README.md" >&2
    missing=1
  fi
done
if [[ "$missing" -ne 0 ]]; then
  echo "docs_lint: add the missing knob(s) to README.md's simulation-model table" >&2
  exit 1
fi
echo "docs_lint: README.md covers all $(echo "$sim_knobs" | wc -l) CFS_SIM* knobs"

# Every CFS_RACE* / CFS_SIM_FUZZ* env knob read by the race detector and
# the schedule fuzzer (src/common/) must appear in both README.md's knob
# table and DESIGN.md §12, so the auditing knobs cannot drift from the
# docs the same way CfsOptions/CFS_SIM* knobs cannot.
# Only quoted names (the strings passed to getenv), not CFS_RACE_* macros.
race_knobs=$(grep -rhoE '"CFS_(RACE|SIM_FUZZ)[A-Z0-9_]*"' src/common/ |
             tr -d '"' | sort -u)
if [[ -z "$race_knobs" ]]; then
  echo "docs_lint: failed to extract CFS_RACE*/CFS_SIM_FUZZ* knobs from src/common/" >&2
  exit 1
fi
race_section=$(sed -n '/^## 12\./,/^## /p' DESIGN.md)
missing=0
for knob in $race_knobs; do
  if ! grep -q "\`$knob\`" README.md; then
    echo "docs_lint: race-audit knob $knob is not documented in README.md" >&2
    missing=1
  fi
  if ! grep -q "\`$knob\`" <<< "$race_section"; then
    echo "docs_lint: race-audit knob $knob is not documented in DESIGN.md §12" >&2
    missing=1
  fi
done
if [[ "$missing" -ne 0 ]]; then
  echo "docs_lint: add the missing knob(s) to README.md and DESIGN.md §12" >&2
  exit 1
fi
echo "docs_lint: docs cover all $(echo "$race_knobs" | wc -l) CFS_RACE*/CFS_SIM_FUZZ* knobs"
