"""Mutation sweep of the study core: one-line edits that the tests must catch.

Each mutant is one exact textual edit of one line of ``src/stochwave``,
with the tests expected to kill it.  For every mutant the sweep copies
``src``, ``tests``, ``perfbench`` and the files the tests read into a
temporary directory, applies the edit there (the working tree is never
touched), and runs pytest on the killing tests; a mutant is killed when a
test fails.  Equivalent mutants, which no test can tell from the code, are
listed with the reason and not run.

Run from the repository root:

    python tests/mutation_sweep.py            # every mutant, its tests only
    python tests/mutation_sweep.py tail_t0    # the named mutants
    python tests/mutation_sweep.py --full     # the whole suite per mutant

It exits 1 if any mutant survives.  The file is not named ``test_*``, so
pytest does not collect it.  When a change adds numerical code, add its core
lines here.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str          # relative to src/stochwave
    old: str           # occurs exactly once in the file
    new: str
    kills: tuple       # pytest node ids or files expected to fail
    equivalent: str = ""   # why no test can catch it, for equivalent mutants


EXP, INT, SPEC, PROB = "experiments.py", "integrators.py", "spectral.py", "problems.py"
NOISE, SEMI = "noise.py", "semigroup.py"
T_EXP, T_INT = "tests/test_experiments.py", "tests/test_integrators.py"

MUTANTS = (
    Mutant("tail_dropped", EXP,
           "err = _weighted_norm_sq(du, dv, *study.weights) + tail",
           "err = _weighted_norm_sq(du, dv, *study.weights)",
           (f"{T_EXP}::TestErrorSplit",)),
    Mutant("shift_dropped", EXP,
           "            if shift is not None:\n",
           "            if False:\n",
           (f"{T_EXP}::TestErrorSplit",)),
    Mutant("tail_t0", EXP,
           "outside = _outside_energy(*source, config.t_final,",
           "outside = _outside_energy(*source, 0.0,",
           (f"{T_EXP}::TestErrorSplit",)),
    # the one slot multiplicity, of the norm weights and the tail pass
    Mutant("slot_multiplicity_1", SPEC,
           "return np.where((k == 0) | (k == band), 1.0, 2.0)",
           "return np.where((k == 0) | (k == band), 1.0, 1.0)",
           (f"{T_EXP}::TestTails",)),
    # 1D presets have no data outside box M, so only 2D cases see the tail's
    # cross term
    Mutant("tail_cross_halved", EXP,
           "+ c * np.sin(2.0 * t * lam) / lam)",
           "+ 0.5 * c * np.sin(2.0 * t * lam) / lam)",
           (f"{T_EXP}::TestTails",)),
    # the limit at lambda = 0, which only box 0 holds
    Mutant("tail_limit_tc", EXP,
           "+ 2.0 * t * c.flat[0]",
           "+ 1.0 * t * c.flat[0]",
           (f"{T_EXP}::TestTails::test_outside_energy_matches_full_box_flow",)),
    # the imaginary parts of a state's terms
    Mutant("tail_drops_imag", EXP,
           "        out += x.imag * y.imag\n",
           "        pass\n",
           (f"{T_EXP}::TestTails::test_outside_energy_matches_full_box_flow",)),
    # the unpaired slot k_last = n: every state keeps it zero, so only the
    # hand-made factors that fill every slot see its multiplicity
    Mutant("factor_multiplicity_2_at_n", SPEC,
           "return np.where((k == 0) | (k == band), 1.0, 2.0)",
           "return np.where(k == 0, 1.0, 2.0)",
           (f"{T_EXP}::TestTails::test_factor_tails_match_full_box_flow",)),
    Mutant("factor_cross_uu", EXP,
           "c = c + _re_dot(u, v) * weight",
           "c = c + _re_dot(u, u) * weight",
           (f"{T_EXP}::TestTails",)),
    # the start at band M keeping the slot M that with_band drops, and the
    # factors' orthant dropping the unpaired slot |k| = band that the box
    # holds
    Mutant("factor_start_keeps_unpaired_slot", PROB,
           "keep = min(band, self.band)",
           "keep = min(band + 1, self.band)",
           (f"{T_EXP}::TestTails::test_factored_study_is_the_full_state_study_bit_for_bit",)),
    Mutant("slab_drops_unpaired_slot", EXP,
           "end = min(n + 1, 1 + max(",
           "end = min(n, 1 + max(",
           (f"{T_EXP}::TestTails::test_factor_tails_match_full_box_flow",)),
    # the tail pass over the whole band again, past the last |k| the data
    # fills, and a slab reading its last-axis profile from slot 0
    Mutant("tail_first_axes_full", EXP,
           "end = min(n + 1, 1 + max(",
           "end = max(n + 1, 1 + max(",
           (f"{T_EXP}::TestTails::test_tail_pass_stops_where_the_data_ends",)),
    Mutant("slab_profile_from_zero", PROB,
           "p = p[lo:hi]",
           "p = p[0:hi - lo]",
           (f"{T_EXP}::TestTails",)),
    # a state's first axis counting |k_j| = 0 twice, and the factors' too
    Mutant("state_first_axis_zero_twice", EXP,
           "(k > 0) | (sign > 0) for sign in signs]",
           "(k >= 0) | (sign > 0) for sign in signs]",
           (f"{T_EXP}::TestTails::test_outside_energy_matches_full_box_flow",)),
    Mutant("factor_first_axis_zero_twice", EXP,
           "mult = [_slot_multiplicity(n, 0, end)] * (dim - 1)",
           "mult = [np.r_[2.0, _slot_multiplicity(n, 1, end)]] * (dim - 1)",
           (f"{T_EXP}::TestTails::test_factor_tails_match_full_box_flow",)),
    # the 2D plateau's height on both axes
    Mutant("plateau_height_twice", PROB,
           "first = [profile([1.0] * len(rows)).real",
           "first = [profile([h for h, *_ in rows]).real",
           ("tests/test_problems.py::TestIndicator2D",)),
    Mutant("explicit_unpaired_accepted", PROB,
           "        if held.size:\n",
           "        if False:\n",
           (f"{T_EXP}::TestConfigHandling::test_explicit_state_of_another_rank_refused_first",)),
    Mutant("tail_guard_2_slabs", EXP,
           "_TAIL_PEAK_SLABS = 21",
           "_TAIL_PEAK_SLABS = 2",
           (f"{T_EXP}::TestMemoryGuard::test_tail_guard_bounds_one_column_slabs",)),
    Mutant("recovered_edge_moved", INT,
           "return (n <= shell) & (shell < min(h, band))",
           "return (n < shell) & (shell < min(h, band))",
           (f"{T_EXP}::TestErrorSplit", f"{T_INT}::TestRunDriver")),
    Mutant("weights_gamma_001", EXP,
           "weights=_norm_weights(dim, band, 0.0)",
           "weights=_norm_weights(dim, band, 0.01)",
           (f"{T_EXP}::TestErrorSplit",)),
    Mutant("lri_filter_half", INT,
           "cut = min(int(np.floor(1.0 / method.tau)), cut)",
           "cut = min(int(np.floor(0.5 / method.tau)), cut)",
           (f"{T_INT}::TestRunDriver::test_lri_cut_below_band",)),
    Mutant("snapshot_recovery_final_time", INT,
           "semigroup.propagator_tables(lam, t),",
           "semigroup.propagator_tables(lam, method.n_steps * method.tau),",
           (f"{T_EXP}::TestRunSingle",)),
    # a snapshot's reused pair not cleared before the stepped row is padded in
    Mutant("assembly_stale_pair", INT,
           "        full.v_hat.fill(0)\n",
           "        pass\n",
           (f"{T_INT}::TestRunDriver::test_snapshot_states_are_the_padded_rows_plus_the_flow",)),
    # plot text: a block's zero rows and Python's rows, the cached x column
    # of a grid, and the separators of a block of another width
    Mutant("zero_layout_skipped", EXP,
           "    if zero.any():\n",
           "    if False:\n",
           (f"{T_EXP}::TestPlotData::test_blocks_with_and_without_zeros_or_fallbacks",)),
    Mutant("fallback_skipped", EXP,
           "    for j in np.flatnonzero(~exact & ~zero):",
           "    for j in []:",
           (f"{T_EXP}::TestPlotData::test_blocks_with_and_without_zeros_or_fallbacks",)),
    Mutant("grid_lines_any_points", EXP,
           "@functools.lru_cache(maxsize=1)",
           "@lambda f: functools.lru_cache(maxsize=1)("
           "lambda points, _first=[]: _first[0] if _first else _first.append(f(points)) or _first[0])",
           (f"{T_EXP}::TestRunSingle::test_grid_column_formatted_once_per_grid",)),
    Mutant("scratch_columns_stale", EXP,
           "if width != set_for[0] or rows > set_for[1]:",
           "if set_for == (0, 0):",
           (f"{T_EXP}::TestPlotData::test_blocks_of_changing_width",)),
    # with a wide n_cuts the reference's recovered modes lie outside box M,
    # where the tail treats the reference as the exact flow
    Mutant("reference_steps_stm", EXP,
           'ref_spec, _, ref_box = planned("hr_lri", config.tau_ref, n_ref)',
           'ref_spec, _, ref_box = planned("stm", config.tau_ref, n_ref)',
           (f"{T_EXP}::TestErrorSplit", f"{T_EXP}::TestTails")),
    Mutant("reference_failure_ignored", EXP,
           "err[list(ref_failed.keys() | failed.keys())] = np.nan",
           "err[list(failed.keys())] = np.nan",
           (f"{T_EXP}::TestRunConvergence::test_failed_reference_row_excludes_its_sample",)),
    Mutant("stderr_without_half", EXP,
           "stderr = math.sqrt(var_sq / good.shape[0]) / (2.0 * rms)",
           "stderr = math.sqrt(var_sq / good.shape[0]) / rms",
           (f"{T_EXP}::test_aggregate_counts_and_delta_method_stderr",)),
    Mutant("variance_ddof0", EXP,
           "var_sq = float(np.var(good, ddof=1))",
           "var_sq = float(np.var(good, ddof=0))",
           (f"{T_EXP}::test_aggregate_counts_and_delta_method_stderr",)),
    Mutant("excluded_fraction_10pc", EXP,
           "MAX_EXCLUDED_FRACTION = 0.01",
           "MAX_EXCLUDED_FRACTION = 0.1",
           (f"{T_EXP}::TestRunConvergence::test_one_percent_of_runs_excluded_at_most",)),
    Mutant("slope_uncentred", EXP,
           "return float(np.dot(xs_c, ys - ys.mean()) / np.dot(xs_c, xs_c))",
           "return float(np.dot(xs_c, ys) / np.dot(xs_c, xs_c))",
           (),
           "the centred xs sum to zero, so centring ys changes the numerator "
           "by rounding only"),
    # the Brownian law: W(T) drawn as N(0, T/2), every cell's variance wrong
    Mutant("levy_total_scale", NOISE,
           "cells = np.array([normals[0] * math.sqrt(t_final)])",
           "cells = np.array([normals[0] * math.sqrt(t_final / 2)])",
           (f"{T_EXP}::TestBrownianLaw",)),
    # a coarse increment that drops the last base cell of its group: the
    # reference's (one cell) is untouched, so only the coarse rows move
    Mutant("coarsen_drops_last_cell", NOISE,
           "    for j in range(r):",
           "    for j in range(max(r - 1, 1)):",
           (f"{T_EXP}::TestBrownianLaw::test_2d_rows_match_the_closed_form",
            f"{T_EXP}::TestBrownianLaw::test_wide_n_cuts_rows_match_the_closed_form")),
    # the map's b, skipped only when it is 1
    Mutant("map_scale_skipped", PROB,
           "trig(u if self.b == 1.0 else np.multiply(u, self.b, out=t), out=t)",
           "trig(u, out=t)",
           ("tests/test_problems.py",)),
    # a linear 2x2 pass writing a12 w into a fresh array again
    Mutant("linear_pass_fresh_product", SEMI,
           "spare = bool(dv) or out is not None",
           "spare = bool(dv)",
           (f"{T_INT}::TestRunBlockWorkingSet::test_linear_peak_is_its_work_arrays",)),
    # one block per level and (band, cut, tau), within the byte budget
    Mutant("group_per_key", EXP,
           "groups.setdefault(key[1:], {}).setdefault(key, spec)",
           "groups.setdefault(key, {}).setdefault(key, spec)",
           (f"{T_EXP}::TestBlockStudy::test_each_distinct_trajectory_stepped_once",)),
    Mutant("block_cap_ignores_kinds", EXP,
           "widest = max([row_bytes] + [len(group) * _array_bytes(",
           "widest = max([row_bytes] + [1 * _array_bytes(",
           (f"{T_EXP}::TestBlockStudy::test_two_kind_blocks_within_byte_budget",)),
    # run_block's own lines
    Mutant("failed_row_unzeroed", INT,
           "            new[:, bad_kinds, bad_rows] = 0.0\n",
           "            pass\n",
           (f"{T_INT}::TestRunBlockOracle",)),
    Mutant("row_scan_skipped", INT,
           "bad_kinds, bad_rows = np.nonzero(~np.isfinite(new).all(axis=scan_axes))",
           "bad_kinds, bad_rows = np.nonzero(np.ones(new.shape[1:3], dtype=bool))",
           (f"{T_INT}::TestRunBlock", f"{T_INT}::TestRunBlockOracle")),
    Mutant("finiteness_sum_true", INT,
           "finite = np.isfinite(np.add.reduce(new, axis=None))",
           "finite = True",
           (f"{T_INT}::TestRunBlock", f"{T_INT}::TestRunBlockKinds")),
    # the merged block of several table kinds
    Mutant("kind_tables_swapped", INT,
           "np.stack(entries)[:, None] for entries in zip(*per_kind))",
           "np.stack(entries)[:, None] for entries in zip(*per_kind[::-1]))",
           (f"{T_INT}::TestRunBlockKinds::test_merged_block_is_one_kind_blocks",)),
    Mutant("results_from_kind_0", INT,
           "BlockResult(u_hat=state.u_hat[k], v_hat=state.v_hat[k], failed=failed[k])",
           "BlockResult(u_hat=state.u_hat[0], v_hat=state.v_hat[0], failed=failed[k])",
           (f"{T_INT}::TestRunBlockKinds::test_merged_block_is_one_kind_blocks",)),
    Mutant("failed_row_wrong_kind", INT,
           "failed[k].setdefault(row, n)",
           "failed[0].setdefault(row, n)",
           (f"{T_INT}::TestRunBlockKinds::test_poisoned_kind_row_excluded_alone",
            f"{T_EXP}::TestRunConvergence::test_nonfinite_image_excluded")),
)


def _apply(copy: Path, mutant: Mutant) -> None:
    path = copy / "src" / "stochwave" / mutant.path
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: the edit's text occurs {text.count(mutant.old)} "
                         f"times in {mutant.path}, not once; update the sweep")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def _run(mutant: Mutant, full: bool) -> tuple[bool, float]:
    """(killed, seconds) of one mutant on a fresh copy."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests", "perfbench"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        for part in ("README.md", "pyproject.toml"):
            shutil.copy(ROOT / part, copy / part)
        _apply(copy, mutant)
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        targets = ["tests"] if full else list(mutant.kills)
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p",
                               "no:cacheprovider", *targets],
                              cwd=copy, env=env, capture_output=True, text=True)
        # pytest exits 1 when a test failed; any other failure (a stale node
        # id, no tests collected) is the sweep's own fault
        if proc.returncode not in (0, 1):
            raise SystemExit(f"{mutant.name}: pytest exited {proc.returncode}\n"
                             f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
        return proc.returncode == 1, time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--full", action="store_true",
                        help="run the whole suite per mutant, not its listed tests")
    args = parser.parse_args(argv)
    known = {m.name for m in MUTANTS}
    unknown = set(args.names) - known
    if unknown:
        parser.error(f"unknown mutants {sorted(unknown)}; known: {sorted(known)}")
    survived = []
    for mutant in MUTANTS:
        if args.names and mutant.name not in args.names:
            continue
        if mutant.equivalent:
            print(f"{mutant.name:32s} equivalent: {mutant.equivalent}")
            continue
        killed, seconds = _run(mutant, args.full)
        print(f"{mutant.name:32s} {'killed' if killed else 'SURVIVED':8s} {seconds:6.1f} s",
              flush=True)
        if not killed:
            survived.append(mutant.name)
    if survived:
        print(f"survivors: {', '.join(survived)}")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
