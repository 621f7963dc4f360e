#!/bin/sh
# The predictor kernels run once per simulated branch event, and the trace
# replayer and the delta evaluator's substream loops once per executed
# step, so they must stay on int comparisons.  Stdlib's bare [min], [max]
# and [compare] are polymorphic: without flambda every call is a C
# compare, which once made up most of the simulation time.  This guard
# fails, with file:line, when one appears in lib/predict/*.ml,
# lib/sim/bep.ml, lib/sim/alpha.ml, lib/trace/replay.ml, lib/delta/eval.ml
# or lib/delta/stream.ml (comments and string literals are ignored;
# [Int.min], [Int.max] and [Int.compare] are fine).
#
# It also keeps the trace decoder in one place: [Ba_trace.Replay] is the
# only code that turns a trace into events, and every other reader
# (the simulator, the delta evaluator's [Stream.build], [trace replay])
# consumes its events.  A read of the raw [Trace.conds] or [Trace.choices]
# streams in lib/ or bin/ outside lib/trace/ fails the guard.
set -eu

cd "$(dirname "$0")/.."

status=0
for f in lib/predict/*.ml lib/sim/bep.ml lib/sim/alpha.ml lib/trace/replay.ml \
  lib/delta/eval.ml lib/delta/stream.ml; do
  # Blank out comments (nested) and string literals, keeping line numbers,
  # then report identifiers min/max/compare not qualified by a module.
  awk -v file="$f" '
    BEGIN { depth = 0; instr = 0 }
    {
      line = $0; out = ""; n = length(line); i = 1
      while (i <= n) {
        c = substr(line, i, 1); c2 = substr(line, i, 2)
        if (instr) {
          if (c == "\\") { i += 2; continue }
          if (c == "\"") instr = 0
          out = out " "; i++
        } else if (c2 == "(*") { depth++; out = out "  "; i += 2 }
        else if (depth > 0 && c2 == "*)") { depth--; out = out "  "; i += 2 }
        else if (depth > 0) { out = out " "; i++ }
        else if (c == "\"") { instr = 1; out = out " "; i++ }
        else { out = out c; i++ }
      }
      rest = out
      while (match(rest, /(^|[^A-Za-z0-9_.'"'"'])(min|max|compare)($|[^A-Za-z0-9_'"'"'])/)) {
        hit = substr(rest, RSTART, RLENGTH)
        match(hit, /min|max|compare/)
        id = substr(hit, RSTART, RLENGTH)
        printf "%s:%d: bare polymorphic %s on a hot path (use Int.%s or an int comparison)\n", file, NR, id, id
        found = 1
        rest = substr(rest, index(rest, hit) + length(hit) - 1)
      }
    }
    END { exit found ? 1 : 0 }
  ' "$f" || status=1
done

if [ "$status" -eq 0 ]; then
  echo "ok   no bare min/max/compare in lib/predict, lib/sim/{bep,alpha}.ml," \
    "lib/trace/replay.ml, lib/delta/{eval,stream}.ml"
fi

raw=$(grep -rnE '\.(conds|choices)\b' lib bin --include='*.ml' | grep -v '^lib/trace/' || true)
if [ -n "$raw" ]; then
  printf '%s\n' "$raw" | sed 's/$/  <- raw trace stream read outside lib\/trace (replay it instead)/'
  status=1
else
  echo "ok   Trace.conds/Trace.choices read only in lib/trace/"
fi
exit $status
