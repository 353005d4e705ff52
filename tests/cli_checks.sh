#!/usr/bin/env bash
# The checks of CI's "Console script" step, run from the repository root with
# `lkld` on PATH and a scratch directory in RUNNER_TEMP, for example:
#   RUNNER_TEMP=$(mktemp -d) PYTHONWARNINGS=error::RuntimeWarning bash tests/cli_checks.sh
# It needs `taskset` and CPUs 0 and 1 in the affinity mask. Tier-1 runs it
# through tests/test_cli.py::TestConsoleScript.
set -e
lkld loss-eval --loss kld --label-location 0 --label-scale 0.2 --pred-location 0.3 \
  --pred-scale 0.5 -o "$RUNNER_TEMP/loss.csv"
printf 'value,d_location,d_scale\n0.605542796,1.55373968,0.621495872\n' | diff - "$RUNNER_TEMP/loss.csv"
printf 'residual,scale,class_name\n0.1,0.4,car\n-0.2,0.3,bike\n0.05,0.2,car\n' > "$RUNNER_TEMP/preds.csv"
lkld calib --records "$RUNNER_TEMP/preds.csv" --grid 0.1:1:0.2 --per-class -o "$RUNNER_TEMP/calib.csv"
cat > "$RUNNER_TEMP/calib.expected" <<'EOF'
expected_cdf,observed_cdf
0.1,0
0.3,0.333333333
0.5,0.333333333
0.7,1
0.9,1
ece,0.14
EOF
diff "$RUNNER_TEMP/calib.expected" "$RUNNER_TEMP/calib.csv"
cat > "$RUNNER_TEMP/calib.car.expected" <<'EOF'
expected_cdf,observed_cdf
0.1,0
0.3,0
0.5,0
0.7,1
0.9,1
ece,0.26
EOF
diff "$RUNNER_TEMP/calib.car.expected" "$RUNNER_TEMP/calib.car.csv"
cat > "$RUNNER_TEMP/calib.bike.expected" <<'EOF'
expected_cdf,observed_cdf
0.1,0
0.3,1
0.5,1
0.7,1
0.9,1
ece,0.34
EOF
diff "$RUNNER_TEMP/calib.bike.expected" "$RUNNER_TEMP/calib.bike.csv"
cat > "$RUNNER_TEMP/config.json" <<'EOF'
{"n_train": 64, "n_test": 128, "feature_dim": 3, "noise": {"kind": "constant", "b": 0.2},
 "label_scale": {"mode": "oracle"}, "seed": 3, "epochs": 3, "average_tail_epochs": 0}
EOF
printf '{"config": %s, "modes": [{"mode": "zero"}, {"mode": "oracle"}]}\n' \
  "$(cat "$RUNNER_TEMP/config.json")" > "$RUNNER_TEMP/compare.json"
lkld train --config "$RUNNER_TEMP/config.json" -o "$RUNNER_TEMP/train.csv"
lkld compare --config "$RUNNER_TEMP/compare.json" -o "$RUNNER_TEMP/compare.csv"
# With more than one CPU, compare trains the oracle mode in a forked
# child; pinned to one CPU it trains both modes in this process.
# The two paths must write the same bytes.
taskset -c 0 lkld compare --config "$RUNNER_TEMP/compare.json" -o "$RUNNER_TEMP/compare.serial.csv"
diff "$RUNNER_TEMP/compare.csv" "$RUNNER_TEMP/compare.serial.csv"
# Three modes on two CPUs: this process trains zero and constant, the
# child oracle, so the shares it joins are of unequal length.
printf '{"config": %s, "modes": [{"mode": "zero"}, {"mode": "oracle"}, {"mode": "constant", "b": 0.1}]}\n' \
  "$(cat "$RUNNER_TEMP/config.json")" > "$RUNNER_TEMP/compare3.json"
taskset -c 0,1 lkld compare --config "$RUNNER_TEMP/compare3.json" -o "$RUNNER_TEMP/compare3.csv"
taskset -c 0 lkld compare --config "$RUNNER_TEMP/compare3.json" -o "$RUNNER_TEMP/compare3.serial.csv"
diff "$RUNNER_TEMP/compare3.csv" "$RUNNER_TEMP/compare3.serial.csv"
# A records file above calib's share floor (2 MiB), with "\n" and with
# "\r\n" line endings: with more than one CPU calib converts it in
# shares, all but the first in forked children; pinned to one CPU, in one
# share run in process. The two runs must write the same bytes, file for file.
python -c 'import math, sys; names = ["car", "bike", ""]; sys.stdout.write("residual,scale,class_name\n" + "".join(f"{math.sin(i)!r},{1 + i % 97 / 7!r},{names[i % 3]}\n" for i in range(60000)))' \
  > "$RUNNER_TEMP/big.csv"
sed 's/$/\r/' "$RUNNER_TEMP/big.csv" > "$RUNNER_TEMP/big-crlf.csv"
for big in big big-crlf; do
  test "$(stat -c %s "$RUNNER_TEMP/$big.csv")" -ge 2097152
  lkld calib --records "$RUNNER_TEMP/$big.csv" --per-class -o "$RUNNER_TEMP/$big-calib.csv"
  taskset -c 0 lkld calib --records "$RUNNER_TEMP/$big.csv" --per-class -o "$RUNNER_TEMP/$big-calib.serial.csv"
  for part in "" .car .bike .%; do
    diff "$RUNNER_TEMP/$big-calib$part.csv" "$RUNNER_TEMP/$big-calib.serial$part.csv"
  done
done
diff "$RUNNER_TEMP/big-calib.csv" "$RUNNER_TEMP/big-crlf-calib.csv"
# Each share counts its rows on the grid it is given: the same diff on a
# grid of 10 points.
lkld calib --records "$RUNNER_TEMP/big.csv" --grid 0.05:1:0.1 --per-class -o "$RUNNER_TEMP/big-grid.csv"
taskset -c 0 lkld calib --records "$RUNNER_TEMP/big.csv" --grid 0.05:1:0.1 --per-class \
  -o "$RUNNER_TEMP/big-grid.serial.csv"
for part in "" .car .bike .%; do
  diff "$RUNNER_TEMP/big-grid$part.csv" "$RUNNER_TEMP/big-grid.serial$part.csv"
done
# Record 45000 of big.csv, in the second share, replaced by one whose
# standard score overflows: both runs exit 1, write nothing and name it by
# its position in the file.
sed '45001s/.*/1e300,1e-10,car/' "$RUNNER_TEMP/big.csv" > "$RUNNER_TEMP/big-overflow.csv"
echo 'error: record 45000: the standard score overflows: residual 1e+300, scale 1e-10' \
  > "$RUNNER_TEMP/big-overflow.expected"
status=0
lkld calib --records "$RUNNER_TEMP/big-overflow.csv" --per-class -o "$RUNNER_TEMP/big-overflow.csv.out" \
  2> "$RUNNER_TEMP/big-overflow.err" || status=$?
test "$status" -eq 1
status=0
taskset -c 0 lkld calib --records "$RUNNER_TEMP/big-overflow.csv" --per-class \
  -o "$RUNNER_TEMP/big-overflow.csv.out" 2> "$RUNNER_TEMP/big-overflow.serial.err" || status=$?
test "$status" -eq 1
diff "$RUNNER_TEMP/big-overflow.expected" "$RUNNER_TEMP/big-overflow.err"
diff "$RUNNER_TEMP/big-overflow.expected" "$RUNNER_TEMP/big-overflow.serial.err"
test ! -e "$RUNNER_TEMP/big-overflow.csv.out"
# A records file above the share floor whose class names are quoted ("a,b")
# only past its midpoint: with more than one CPU the first share converts
# and the second fails on the '"', so calib parses the whole open file in
# one stream with csv; pinned to one CPU, its one share fails the same way.
# The two runs must write the same files, byte for byte.
python -c 'import math, sys; names = ["car", "bike", "car"], ["car", "bike", "\"a,b\""]; sys.stdout.write("residual,scale,class_name\n" + "".join(f"{math.sin(i)!r},{1 + i % 97 / 7!r},{names[i >= 32000][i % 3]}\n" for i in range(60000)))' \
  > "$RUNNER_TEMP/quoted.csv"
test "$(stat -c %s "$RUNNER_TEMP/quoted.csv")" -ge 2097152
mkdir "$RUNNER_TEMP/quoted" "$RUNNER_TEMP/quoted.serial"
lkld calib --records "$RUNNER_TEMP/quoted.csv" --per-class -o "$RUNNER_TEMP/quoted/calib.csv"
taskset -c 0 lkld calib --records "$RUNNER_TEMP/quoted.csv" --per-class -o "$RUNNER_TEMP/quoted.serial/calib.csv"
test -s "$RUNNER_TEMP/quoted/calib.a%2Cb.csv"
diff -r "$RUNNER_TEMP/quoted" "$RUNNER_TEMP/quoted.serial"
# A tracks file above labelunc's share floor (2 MiB): with more than
# one CPU labelunc decodes and evaluates it in shares, all but the first in
# forked children; pinned to one CPU, in one share run in process. The two
# runs must write the same bytes.
python -c 'import json, math, sys; json.dump({"tracks": [{"label_id": f"t{i:04d}", "class_name": ("car", "ped")[i % 2], "poses": [{"sweep_id": s, "center": [i + 0.1 * s, -i], "theta": 0.01 * s, "length": 4.0, "width": 2.0} for s in range(3)], "points": [{"sweep_id": s, "xy": [[i + 1.9 * math.sin(i + k), -i + 0.9 * math.cos(k)] for k in range(60)]} for s in range(3)]} for i in range(600)]}, sys.stdout)' \
  > "$RUNNER_TEMP/big-tracks.json"
test "$(stat -c %s "$RUNNER_TEMP/big-tracks.json")" -ge 2097152
lkld labelunc --tracks "$RUNNER_TEMP/big-tracks.json" --anchors 2.0,0.05,0.01 -o "$RUNNER_TEMP/big-records.csv"
taskset -c 0 lkld labelunc --tracks "$RUNNER_TEMP/big-tracks.json" --anchors 2.0,0.05,0.01 \
  -o "$RUNNER_TEMP/big-records.serial.csv"
diff "$RUNNER_TEMP/big-records.csv" "$RUNNER_TEMP/big-records.serial.csv"
# The same file with a string coordinate in tracks[450], in the second
# share: the child fails as it builds that track, and both runs exit 1,
# write nothing and print the one pass's error.
python -c 'import json, sys; doc = json.load(open(sys.argv[1])); doc["tracks"][450]["points"][1]["xy"][7][0] = "1.5"; json.dump(doc, sys.stdout)' \
  "$RUNNER_TEMP/big-tracks.json" > "$RUNNER_TEMP/big-string.json"
test "$(stat -c %s "$RUNNER_TEMP/big-string.json")" -ge 2097152
echo 'error: malformed track at tracks[450]: point coordinates must be numbers' > "$RUNNER_TEMP/big-string.expected"
status=0
lkld labelunc --tracks "$RUNNER_TEMP/big-string.json" --anchors 2.0,0.05,0.01 \
  -o "$RUNNER_TEMP/big-string.csv" 2> "$RUNNER_TEMP/big-string.err" || status=$?
test "$status" -eq 1
status=0
taskset -c 0 lkld labelunc --tracks "$RUNNER_TEMP/big-string.json" --anchors 2.0,0.05,0.01 \
  -o "$RUNNER_TEMP/big-string.csv" 2> "$RUNNER_TEMP/big-string.serial.err" || status=$?
test "$status" -eq 1
diff "$RUNNER_TEMP/big-string.expected" "$RUNNER_TEMP/big-string.err"
diff "$RUNNER_TEMP/big-string.expected" "$RUNNER_TEMP/big-string.serial.err"
test ! -e "$RUNNER_TEMP/big-string.csv"
# The pinned tracks of tests/test_cli.py with every length times 2**-530 and
# 2**505: scaling by a power of two is exact, so the records must be those of
# the unscaled document, byte for byte.
python -c 'import json, sys; sys.path.insert(0, "tests"); from test_cli import scaled_tracks, seeded_tracks; [json.dump(scaled_tracks(seeded_tracks(11, 24), k), open(f"{sys.argv[1]}/unit{k}.json", "w")) for k in (0, -530, 505)]' \
  "$RUNNER_TEMP"
for k in 0 -530 505; do
  lkld labelunc --tracks "$RUNNER_TEMP/unit$k.json" --anchors 2.0,0.05,0.01 -o "$RUNNER_TEMP/unit$k.csv"
done
diff "$RUNNER_TEMP/unit0.csv" "$RUNNER_TEMP/unit-530.csv"
diff "$RUNNER_TEMP/unit0.csv" "$RUNNER_TEMP/unit505.csv"
for f in train compare; do test -s "$RUNNER_TEMP/$f.csv"; done
cat "$RUNNER_TEMP/compare.csv"
lkld fit-map --anchors 2.0,0.05,0.01 > "$RUNNER_TEMP/fit-map.json"
cat > "$RUNNER_TEMP/fit-map.expected" <<'EOF'
{
  "alpha": 1.9908377,
  "anchors": [
    2.0,
    0.05,
    0.01
  ],
  "beta": 7.77341039,
  "gamma": 0.00916230366,
  "linear": false,
  "roundtrip_max_abs_err": 1.42247325e-16
}
EOF
diff "$RUNNER_TEMP/fit-map.expected" "$RUNNER_TEMP/fit-map.json"
lkld grad-check --loss kld --samples 200
lkld surface --loss kld --label-scale 0.2 --error 0:1:0.25 --scale 0.1:1:0.3 -o "$RUNNER_TEMP/surface.csv"
cat > "$RUNNER_TEMP/surface.expected" <<'EOF'
error,scale,value
0,0.1,0.306852819
0,0.4,0.193147181
0,0.7,0.538477254
0.25,0.1,1.37986241
0.25,0.4,0.461399579
0.25,0.7,0.691764339
0.5,0.1,3.47102282
0.5,0.4,0.98418968
0.5,0.7,0.99050154
0.75,0.1,5.85388831
0.75,0.4,1.57990605
0.75,0.7,1.3309109
EOF
diff "$RUNNER_TEMP/surface.expected" "$RUNNER_TEMP/surface.csv"
cat > "$RUNNER_TEMP/tracks.json" <<'EOF'
{"tracks": [
  {"label_id": "veh-1", "class_name": "vehicle",
   "poses": [{"sweep_id": 0, "center": [0.0, 0.0], "theta": 0.0, "length": 4.0, "width": 2.0},
             {"sweep_id": 1, "center": [0.8, 0.0], "theta": 0.05, "length": 4.0, "width": 2.0}],
   "points": [{"sweep_id": 0, "xy": [[1.5, 0.8], [-1.5, 0.8], [-1.5, -0.8], [1.5, -0.8]]},
              {"sweep_id": 1, "xy": [[2.6, 0.5], [-0.4, 0.9], [0.1, -0.7]]}]},
  {"label_id": "ped-7", "class_name": "pedestrian",
   "poses": [{"sweep_id": 0, "center": [5.0, 5.0], "theta": 0.3, "length": 0.8, "width": 0.8}],
   "points": [{"sweep_id": 0, "xy": []}]},
  {"label_id": "cyc-3", "class_name": "cyclist",
   "poses": [{"sweep_id": 2, "center": [-3.0, 1.0], "theta": -1.2, "length": 1.8, "width": 0.7}],
   "points": [{"sweep_id": 2, "xy": [[-3.2, 0.6], [-2.9, 1.5], [-2.7, 0.9]]}]},
  {"label_id": "veh-2", "class_name": "vehicle",
   "poses": [{"sweep_id": 0, "center": [10.0, -4.0], "theta": 0.5, "length": 2.0, "width": 1.0}],
   "points": [{"sweep_id": 0, "xy": [[11.2, -3.1], [9.0, -4.6], [10.5, -4.5], [9.6, -3.2]]}]},
  {"label_id": "veh-3", "class_name": "vehicle",
   "poses": [{"sweep_id": 4, "center": [20.0, -6.0], "theta": 0.3, "length": 4.0, "width": 2.0}],
   "points": [{"sweep_id": 4, "xy": [[21.23, -5.42], [21.18, -6.41], [20.34, -4.99], [19.85, -6.78], [22.01, -5.05], [18.52, -6.13],
           [22.41, -5.8], [21.52, -5.16], [18.89, -6.94], [22.17, -5.63], [19.65, -5.81], [19.99, -6.94],
           [18.92, -6.39], [21.14, -5.45], [19.84, -6.63], [21.47, -6.13], [21.03, -5.69], [20.3, -6.13],
           [18.81, -6.99], [20.77, -6.18], [17.94, -7.22], [21.82, -5.04], [20.42, -6.06], [21.58, -5.96],
           [20.87, -6.65], [20.42, -4.98], [21.18, -6.43], [20.52, -6.19], [22.18, -6.23], [17.98, -7.39],
           [19.06, -5.57], [20.21, -5.63], [18.08, -7.21], [19.39, -5.95], [21.11, -5.51], [19.16, -6.86],
           [19.77, -6.53], [20.98, -4.96], [21.6, -6.22], [21.57, -6.43], [18.22, -6.17], [19.01, -5.69],
           [20.79, -5.49], [20.24, -5.15], [21.77, -6.34], [22.26, -5.43], [18.87, -5.65], [21.78, -4.94]]}]}
]}
EOF
lkld labelunc --tracks "$RUNNER_TEMP/tracks.json" --anchors 2.0,0.05,0.01 \
  --class-anchors pedestrian:0.25,0.05,0.01 -o "$RUNNER_TEMP/records.csv"
lkld iou-hist --records "$RUNNER_TEMP/records.csv" --bins 4 -o "$RUNNER_TEMP/hist.csv"
cat "$RUNNER_TEMP/records.csv" "$RUNNER_TEMP/hist.csv"
# veh-1's and cyc-3's hulls lie inside their boxes and are not clipped;
# veh-2's crosses every edge of its box and is.
# veh-3's 48 points in one sweep, 10 of them outside its box, go through
# the prefilter; the chain hulls the survivors and the box clips the hull.
cat > "$RUNNER_TEMP/records.expected" <<'EOF'
label_id,class_name,iou,scale_b,n_points,n_sweeps
cyc-3,cyclist,0.142857,0.664941,3,1
ped-7,pedestrian,0,0.25,0,1
veh-1,vehicle,0.662058,0.020749,7,2
veh-2,vehicle,0.658328,0.0210899,4,1
veh-3,vehicle,0.71152,0.0170506,48,1
EOF
diff "$RUNNER_TEMP/records.expected" "$RUNNER_TEMP/records.csv"
cat > "$RUNNER_TEMP/hist.expected" <<'EOF'
bin_low,bin_high,count
0,0.25,2
0.25,0.5,0
0.5,0.75,3
0.75,1,0
EOF
diff "$RUNNER_TEMP/hist.expected" "$RUNNER_TEMP/hist.csv"
cat > "$RUNNER_TEMP/ragged.json" <<'EOF'
{"tracks": [
  {"label_id": "veh-1", "class_name": "vehicle",
   "poses": [{"sweep_id": 0, "center": [0.0, 0.0], "theta": 0.0, "length": 4.0, "width": 2.0}],
   "points": [{"sweep_id": 0, "xy": [[1.0, 2.0], [3.0]]}]}
]}
EOF
status=0
lkld labelunc --tracks "$RUNNER_TEMP/ragged.json" --anchors 2.0,0.05,0.01 \
  -o "$RUNNER_TEMP/ragged.csv" 2> "$RUNNER_TEMP/ragged.err" || status=$?
cat "$RUNNER_TEMP/ragged.err"
test "$status" -eq 1
grep -qF 'points must be (x, y) pairs' "$RUNNER_TEMP/ragged.err"
test ! -e "$RUNNER_TEMP/ragged.csv"
# A bad point in tracks[1] comes before a bad pose in tracks[2], and
# the message names the point's index within its sweep.
cat > "$RUNNER_TEMP/nan.json" <<'EOF'
{"tracks": [
  {"label_id": "veh-1", "class_name": "vehicle",
   "poses": [{"sweep_id": 0, "center": [0.0, 0.0], "theta": 0.0, "length": 4.0, "width": 2.0}],
   "points": [{"sweep_id": 0, "xy": [[1.5, 0.8], [-1.5, 0.8], [0.1, -0.7]]}]},
  {"label_id": "veh-2", "class_name": "vehicle",
   "poses": [{"sweep_id": 0, "center": [5.0, 0.0], "theta": 0.0, "length": 4.0, "width": 2.0},
             {"sweep_id": 1, "center": [5.8, 0.0], "theta": 0.0, "length": 4.0, "width": 2.0}],
   "points": [{"sweep_id": 0, "xy": [[5.5, 0.2], [4.5, -0.2]]},
              {"sweep_id": 1, "xy": [[6.0, 0.1], [NaN, 0.5], [5.2, -0.4]]}]},
  {"label_id": "veh-3", "class_name": "vehicle",
   "poses": [{"sweep_id": 0, "center": [9.0, 0.0], "theta": "0", "length": 4.0, "width": 2.0}],
   "points": [{"sweep_id": 0, "xy": [[9.5, 0.3]]}]}
]}
EOF
status=0
lkld labelunc --tracks "$RUNNER_TEMP/nan.json" --anchors 2.0,0.05,0.01 \
  -o "$RUNNER_TEMP/nan.csv" 2> "$RUNNER_TEMP/nan.err" || status=$?
cat "$RUNNER_TEMP/nan.err"
test "$status" -eq 1
echo 'error: malformed track at tracks[1]: point coordinates must be finite, got [nan, 0.5] at point 1' \
  | diff - "$RUNNER_TEMP/nan.err"
test ! -e "$RUNNER_TEMP/nan.csv"
# Half of t1's 5e-324 length rounds to 0, so its box is a segment: IoU 0.
# t2's 1e-6 box has its four corners as points: IoU 1, as at any size.
cat > "$RUNNER_TEMP/scale.json" <<'EOF'
{"tracks": [
  {"label_id": "t1", "class_name": "car",
   "poses": [{"sweep_id": 0, "center": [0.0, 0.0], "theta": 0.0, "length": 5e-324, "width": 1.0}],
   "points": [{"sweep_id": 0, "xy": [[0.0, 0.1], [0.0, -0.1]]}]},
  {"label_id": "t2", "class_name": "car",
   "poses": [{"sweep_id": 0, "center": [0.0, 0.0], "theta": 0.0, "length": 1e-6, "width": 1e-6}],
   "points": [{"sweep_id": 0, "xy": [[5e-7, 5e-7], [-5e-7, 5e-7], [-5e-7, -5e-7], [5e-7, -5e-7]]}]}
]}
EOF
lkld labelunc --tracks "$RUNNER_TEMP/scale.json" --anchors 1.0,0.4,0.1 -o "$RUNNER_TEMP/scale.csv"
cat > "$RUNNER_TEMP/scale.expected" <<'EOF'
label_id,class_name,iou,scale_b,n_points,n_sweeps
t1,car,0,1,2,1
t2,car,1,0.1,4,1
EOF
diff "$RUNNER_TEMP/scale.expected" "$RUNNER_TEMP/scale.csv"
