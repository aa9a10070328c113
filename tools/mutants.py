"""Mutation harness: every check must be able to fail.

Each mutant replaces one exact source snippet by a wrong variant in a
temporary copy of the repository, then runs the tests expected to catch it
with `python -m pytest -x`.  A mutant is caught when one of them fails.

    python3 tools/mutants.py           # run every mutant
    python3 tools/mutants.py NAME ...  # run the named mutants

One line is printed per mutant, with the first failing test.  The exit
status is 1 when a mutant survives or its snippet no longer occurs exactly
once in its file (a refactor must update the table), and 2 when the named
tests already fail on the unmutated copy.  Stdlib only; the temporary
copies go under $TMPDIR.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "tools", "pyproject.toml", "BENCHMARK.json")


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    snippet: str  # must occur exactly once in the file
    replacement: str
    tests: tuple  # pytest node ids, one of which must fail


MUTANTS = (
    Mutant(
        "fedder-mu-smallest-weight",
        "src/diagvar/polyring.py",
        "mu = max(weights, default=0)",
        "mu = min(weights, default=0)",
        (
            "tests/test_polyring_properties.py::test_initial_form_matches_the_tuple_oracle",
            "tests/test_fpurity.py::test_a_weight_that_ties_m_keeps_every_top_term",
        ),
    ),
    Mutant(
        "certificate-mu-smallest-weight",
        "src/diagvar/diagvariety.py",
        "mu = max(weights)\n",
        "mu = min(weights)\n",
        (
            "tests/test_fpurity.py::test_the_certificate_base_is_the_full_P_base",
            "tests/test_fpurity.py::test_the_top_weight_is_minus_binomial_n_plus_2_over_4",
        ),
    ),
    Mutant(
        "fedder-weight-without-homogeneity",
        "src/diagvar/diagvariety.py",
        "if f.homogeneous_degree() != r:",
        "if False:",
        ("tests/test_fpurity.py::test_the_certificate_refuses_a_c_that_is_not_homogeneous",),
    ),
    Mutant(
        "fedder-base-without-m-membership",
        "src/diagvar/diagvariety.py",
        "    if base.coefficient((1,) * len(cells)) not in (1, -1):\n",
        "    if False:\n",
        ("tests/test_fpurity.py::test_the_certificate_refuses_a_diagonal_that_misses_m",),
    ),
    Mutant(
        "certificate-ties-accepted",
        "src/diagvar/diagvariety.py",
        "if x + v > tx:",
        "if x + v >= tx:",
        ("tests/test_fpurity.py::test_top_permutations_counts_every_permutation_at_the_top",),
    ),
    Mutant(
        "certificate-maximiser-count-unchecked",
        "src/diagvar/diagvariety.py",
        "    if count != 1:\n",
        "    if False:\n",
        ("tests/test_fpurity.py::test_the_certificate_refuses_permutations_tied_at_the_top",),
    ),
    Mutant(
        "certificate-identity-not-required-on-top",
        "src/diagvar/diagvariety.py",
        "    if None in diagonal or sum(diagonal) != best:\n",
        "    if False:\n",
        ("tests/test_fpurity.py::test_the_certificate_refuses_a_weight_with_terms_above_m",),
    ),
    Mutant(
        "certificate-diagonal-ties-accepted",
        "src/diagvar/diagvariety.py",
        "        if len(g._t) != 1 or next(iter(g._t.values())) not in (1, -1):\n",
        "        if False:\n",
        ("tests/test_fpurity.py::test_the_certificate_refuses_a_weight_that_ties_m",),
    ),
    Mutant(
        "certificate-weight-sign-flipped",
        "src/diagvar/diagvariety.py",
        "weight=lambda i, j: -i * j",
        "weight=lambda i, j: i * j",
        (
            "tests/test_fpurity.py::test_the_certificate_base_is_the_full_P_base",
            "tests/test_fpurity.py::test_forced_check_fpure_past_the_window_expands_no_determinant",
        ),
    ),
    Mutant(
        "det-sign-flipped",
        "src/diagvar/polymatrix.py",
        "-1 if (i + (mask & ((1 << j) - 1)).bit_count()) % 2 else 1",
        "1 if (i + (mask & ((1 << j) - 1)).bit_count()) % 2 else -1",
        (
            "tests/test_polymatrix.py::test_det_two_by_two_diag_columns",
            "tests/test_polymatrix.py::test_det_matches_permutation_expansion",
        ),
    ),
    Mutant(
        "det-live-set-off-by-one",
        "src/diagvar/polymatrix.py",
        "rest = live[i + 1]",
        "rest = live[i]",
        (
            "tests/test_polyring_properties.py::test_determinant_with_zero_patterns_matches_the_permutation_expansion",
            "tests/test_polyring_properties.py::test_characteristic_polynomials_match_the_permutation_expansion",
        ),
    ),
    Mutant(
        "char-poly-t-sign",
        "src/diagvar/polymatrix.py",
        "neg[i][i][1 << (w * f)] = 1",
        "neg[i][i][1 << (w * f)] = -1",
        (
            "tests/test_polyring_properties.py::test_characteristic_polynomials_match_the_permutation_expansion",
            "tests/test_polymatrix.py::test_char_poly_single_variable",
            "tests/test_diagvariety.py::test_p_generic_n2",
        ),
    ),
    Mutant(
        "compute_P-t-coefficient-off-by-one",
        "src/diagvar/diagvariety.py",
        "acc = row[(bit.bit_length() - 1) // w]",
        "acc = row[(bit.bit_length() - 1) // w - 1]",
        (
            "tests/test_diagvariety.py::test_p_generic_n2",
            "tests/test_diagvariety.py::test_c_matches_the_principal_minors_on_random_entries",
            "tests/test_acceptance.py::test_criterion_4_antidiag_unit_coefficients",
        ),
    ),
    Mutant(
        "compute_P-row-0-not-ones",
        "src/diagvar/diagvariety.py",
        "        if not ts:\n",
        "        if ts.bit_count() % n == 0:\n",
        (
            "tests/test_diagvariety.py::test_p_generic_n2",
            "tests/test_diagvariety.py::test_p_matches_the_permutation_expansion_of_d_on_random_entries",
            "tests/test_diagvariety.py::test_p_generic_n5_matches_the_determinant_of_d",
        ),
    ),
    Mutant(
        "c-term-credited-to-every-k",
        "src/diagvar/diagvariety.py",
        "            acc = row[(bit.bit_length() - 1) // w]\n            acc[m] = acc.get(m, 0) + c\n",
        "            for acc in row:\n                acc[m] = acc.get(m, 0) + c\n",
        (
            "tests/test_diagvariety.py::test_c_matches_the_principal_minors_on_random_entries",
            "tests/test_diagvariety.py::test_p_matches_the_permutation_expansion_of_d_on_random_entries",
        ),
    ),
    Mutant(
        "c-entry-not-reduced",
        "src/diagvar/diagvariety.py",
        "_reduce_in_place(acc, dom.p)",
        "acc",
        ("tests/test_diagvariety.py::test_c_of_sop_over_gf2_is_reduced",),
    ),
    Mutant(
        "c-row-map-off-by-one",
        "src/diagvar/diagvariety.py",
        "row = C[n - ts.bit_count()]",
        "row = C[n - 1 - ts.bit_count()]",
        (
            "tests/test_diagvariety.py::test_c_matches_the_principal_minors_on_random_entries",
            "tests/test_diagvariety.py::test_p_generic_n2",
        ),
    ),
    Mutant(
        "lemma2-corner-at-the-block-diagonal",
        "src/diagvar/diagvariety.py",
        "X0._char_poly(var(n, n))",
        "X0._char_poly(var(n - 1, n - 1))",
        (
            "tests/test_diagvariety.py::test_block_factorization_n2",
            "tests/test_diagvariety.py::test_block_factorization_matches_independent_expansion_n3",
        ),
    ),
    Mutant(
        "compute_P-specialized-guard-forced",
        "src/diagvar/diagvariety.py",
        '    guard("polymatrix", M.n, force)\n',
        '    guard("polymatrix", M.n, True)\n',
        (
            "tests/test_diagvariety.py::test_p_guard_on_a_specialized_n8_matrix_comes_before_any_work",
            "tests/test_diagvariety.py::test_specialized_guard_names_the_shared_budget",
        ),
    ),
    Mutant(
        "limits-row-one-past-its-top",
        "src/diagvar/guards.py",
        "        return\n    w = WINDOWS.get(check) or LIMITS[check]\n",
        "        return\n    w = WINDOWS.get(check) or LIMITS[check]._replace(hi=LIMITS[check].hi + 1)\n",
        ("tests/test_diagvariety.py::test_layer_budget_one_past_comes_before_any_work",),
    ),
    Mutant(
        "limits-row-ignores-force",
        "src/diagvar/guards.py",
        "    if force:\n",
        "    if force and check in WINDOWS:\n",
        ("tests/test_diagvariety.py::test_layer_budget_one_past_comes_before_any_work",),
    ),
    Mutant(
        "char-poly-guarded-by-the-power-diagonal-row",
        "src/diagvar/polymatrix.py",
        'guard("polymatrix", self.n, force)',
        'guard("power_diagonal", self.n, force)',
        ("tests/test_diagvariety.py::test_layer_budget_one_past_comes_before_any_work",),
    ),
    Mutant(
        "pair-budget-inclusive",
        "src/diagvar/polymatrix.py",
        "pairs > budget",
        "pairs >= budget",
        ("tests/test_guards.py::test_pair_budget_passes_at_the_largest_dp_and_stops_one_pair_below",),
    ),
    Mutant(
        "shifted-det-budget-dropped",
        "src/diagvar/polymatrix.py",
        "_subset_det(neg, p, budget=budget)",
        "_subset_det(neg, p)",
        ("tests/test_guards.py::test_pair_budget_passes_at_the_largest_dp_and_stops_one_pair_below",),
    ),
    Mutant(
        "pair-budget-level-sum-short-of-its-last-product",
        "src/diagvar/polymatrix.py",
        "for _, _, entry, minor in pending)",
        "for _, _, entry, minor in pending[:-1])",
        ("tests/test_guards.py::test_pair_budget_passes_at_the_largest_dp_and_stops_one_pair_below",),
    ),
    Mutant(
        "det-part-wrong-partner-grade",
        "src/diagvar/polymatrix.py",
        "tb = mg.get(g - a)",
        "tb = mg.get(g + a)",
        (
            "tests/test_diagvariety.py::test_p_parts_split_the_whole_by_the_first_row",
            "tests/test_cli.py::test_pofx_cell_reads_p_as_compute_p_does",
            "tests/test_diagvariety.py::test_block_factorization_all_modes_small",
        ),
    ),
    Mutant(
        "lemma2-parts-compared-to-the-shorter-side",
        "src/diagvar/diagvariety.py",
        "    return next(right, None) is None\n",
        "    return True\n",
        ("tests/test_diagvariety.py::test_a_right_side_one_part_short_or_long_fails_every_mode",),
    ),
    Mutant(
        "det-part-held-across-the-next",
        "src/diagvar/polymatrix.py",
        "            del terms\n",
        "",
        ("tests/test_cli.py::test_each_part_is_dropped_before_the_next_is_formed",),
    ),
    Mutant(
        "product-parts-packed-wider-than-the-product",
        "src/diagvar/polymatrix.py",
        "w = max(f._w, g._w, _width(e))",
        "w = max(f._w, g._w, _width(e), 16)",
        ("tests/test_polymatrix.py::test_product_parts_sum_to_the_product_and_are_packed_as_it",),
    ),
    Mutant(
        "corner-product-sign-flipped",
        "src/diagvar/polymatrix.py",
        "_graded_sum([(1, _graded(f._at(w), low)",
        "_graded_sum([(-1, _graded(f._at(w), low)",
        ("tests/test_diagvariety.py::test_corner_side_at_integer_points",),
    ),
    Mutant(
        "c-row-decoding-sign-dropped",
        "src/diagvar/diagvariety.py",
        "acc[m] = acc.get(m, 0) + c",
        "acc[m] = acc.get(m, 0) + abs(c)",
        ("tests/test_diagvariety.py::test_det_c_of_a_constant_matrix_is_its_p",),
    ),
    Mutant(
        "lemma2-shared-verdict-unchecked",
        "src/diagvar/diagvariety.py",
        "    if C == C_both:\n",
        "    if True:\n",
        ("tests/test_diagvariety.py::test_block_factorization_expands_its_own_determinant_when_c_differs",),
    ),
    Mutant(
        "killed-cut-off-by-one",
        "src/diagvar/intlattice.py",
        "if i + j <= n + 1]",
        "if i + j <= n + 2]",
        (
            "tests/test_diagvariety.py::test_each_label_keeps_the_cells_its_definition_names",
            "tests/test_diagvariety.py::test_killed_matrix_cells_n3",
            "tests/test_diagvariety.py::test_killed_matrix_is_the_killed_generic_matrix_in_its_survivors_ring",
        ),
    ),
    Mutant(
        "generic-grid-cut-one-short",
        "src/diagvar/diagvariety.py",
        "        return grid\n",
        "        return grid[:-1]\n",
        (
            "tests/test_diagvariety.py::test_each_label_keeps_the_cells_its_definition_names",
            "tests/test_diagvariety.py::test_generic_matrix_small",
            "tests/test_diagvariety.py::test_generic_matrix_keeps_every_cell_in_the_matrix_context",
        ),
    ),
    Mutant(
        "kill_s0-given-the-kill_s-cut",
        "src/diagvar/diagvariety.py",
        '(n if label == "kill_s0" else n - 1)',
        "(n - 1)",
        (
            "tests/test_diagvariety.py::test_each_label_keeps_the_cells_its_definition_names",
            "tests/test_diagvariety.py::test_antidiag_coeff_expands_the_ring_of_its_kill",
        ),
    ),
    Mutant(
        "tilde-row-and-column-swapped",
        "src/diagvar/diagvariety.py",
        'last_row, last_col = mode != "column", mode != "row"',
        'last_row, last_col = mode != "row", mode != "column"',
        ("tests/test_diagvariety.py::test_each_label_keeps_the_cells_its_definition_names",),
    ),
    Mutant(
        "sop-survivor-left-unidentified",
        "src/diagvar/diagvariety.py",
        "for i, j in kept if (i, j) != (1, 1))",
        "for i, j in kept if i > 1)",
        ("tests/test_diagvariety.py::test_each_label_keeps_the_cells_its_definition_names",),
    ),
    Mutant(
        "peeling-monomial-off-the-antidiagonal",
        "src/diagvar/diagvariety.py",
        "[int(i + j == n) for i, j in cells]",
        "[int(i + j == n - 1) for i, j in cells]",
        ("tests/test_diagvariety.py::test_peeling_identity_small",),
    ),
    Mutant(
        "matrix-json-t-only-as-a-whole-entry",
        "src/diagvar/polymatrix.py",
        'if any("t" in s for row in texts for s in row):',
        'if any(s == "t" for row in texts for s in row):',
        (
            "tests/test_polymatrix.py::test_matrix_json_context_is_the_grid_then_t",
            "tests/test_cli.py::test_pofx_matrix_whose_entries_use_t",
        ),
    ),
    Mutant(
        "matrix-json-entry-error-loses-its-cell",
        "src/diagvar/errors.py",
        'raise SchemaError(f"row {i}, column {j}: {e}") from e',
        "raise SchemaError(str(e)) from e",
        (
            "tests/test_polymatrix.py::test_matrix_json_unknown_variable_names_position",
            "tests/test_intlattice.py::test_intmatrix_json_errors",
        ),
    ),
    Mutant(
        "matrix-json-size-an-isinstance-check",
        "src/diagvar/errors.py",
        "if type(n) is not int:",
        "if not isinstance(n, int):",
        (
            "tests/test_polymatrix.py::test_matrix_json_rejects_a_non_integer_size",
            "tests/test_cli.py::test_load_int_matrix_rejects_a_non_integer_size",
        ),
    ),
    Mutant(
        "integer-entry-without-full-match",
        "src/diagvar/intlattice.py",
        "if not re.fullmatch(",
        "if not re.match(",
        (
            "tests/test_intlattice.py::test_intmatrix_json_rejects_a_non_decimal_string",
            "tests/test_cli.py::test_load_int_matrix_rejects_a_non_decimal_string",
        ),
    ),
    Mutant(
        "cell-pofx-window-guard-dropped",
        "src/diagvar/cli.py",
        '    guard("pofx", n, force)\n',
        "",
        (
            "tests/test_guards.py::test_unforced_call_outside_window_fails_fast",
            "tests/test_cli.py::test_guard_violation_exits_2_and_names_guard",
        ),
    ),
    Mutant(
        "cell-pofx-drops-its-last-part",
        "src/diagvar/cli.py",
        "for part in diagvariety._P_parts(diagvariety.generic_matrix(n), n, force=force):",
        "for part in list(diagvariety._P_parts(diagvariety.generic_matrix(n), n, force=force))[:-1]:",
        (
            "tests/test_cli.py::test_pofx_cell_reads_p_as_compute_p_does",
            "tests/test_cli.py::test_suite_parallel_matches_serial",
        ),
    ),
    Mutant(
        "cell-pofx-part-mask-zero",
        "src/diagvar/cli.py",
        "generic_matrix(n), n, force=force)",
        "generic_matrix(n), 0, force=force)",
        ("tests/test_cli.py::test_pofx_cell_never_holds_all_of_p",),
    ),
    Mutant(
        "sop-sign-dropped",
        "src/diagvar/diagvariety.py",
        "SopNormalForm(sign=c,",
        "SopNormalForm(sign=abs(c),",
        (
            "tests/test_diagvariety.py::test_sop_normal_form_displayed_values",
            "tests/test_diagvariety.py::test_sop_sign_is_the_peeled_lemma4_determinant",
        ),
    ),
    Mutant(
        "sop-exponent-d-minus-1",
        "src/diagvar/diagvariety.py",
        "exponent=n * (n - 1) // 2)",
        "exponent=n * (n - 1) // 2 - 1)",
        (
            "tests/test_diagvariety.py::test_sop_normal_form_displayed_values",
            "tests/test_diagvariety.py::test_sop_normal_form_larger_sizes_match_permutation_expansion",
        ),
    ),
    Mutant(
        "sop-cell-passes-every-sign",
        "src/diagvar/cli.py",
        "passed=abs(nf.sign) == 1",
        "passed=True",
        (
            "tests/test_cli.py::test_failing_check_exits_1",
            "tests/test_cli.py::test_suite_with_a_non_unit_sop_sign_fails_its_cells",
        ),
    ),
    Mutant(
        "capped-mask-off-by-one",
        "src/diagvar/polyring.py",
        "add |= (top - 1 - b) << (w * i)",
        "add |= (top - b) << (w * i)",
        (
            "tests/test_polyring.py::test_pow_capped_matches_delete_after_power_randomized",
            "tests/test_polyring_properties.py::test_pow_capped_matches_power_then_delete",
        ),
    ),
    Mutant(
        "degree-mod-bound-inclusive",
        "src/diagvar/polyring.py",
        "len(self.ctx) * self._e < m or",
        "len(self.ctx) * self._e <= m or",
        ("tests/test_polyring_properties.py::test_degrees_match_tuple_sums",),
    ),
    Mutant(
        "degree-or-bound-inclusive",
        "src/diagvar/polyring.py",
        "ones, self._w)[0] < m:",
        "ones, self._w)[0] <= m:",
        (
            "tests/test_polyring.py::test_degree_past_the_per_variable_bound",
            "tests/test_polyring_properties.py::test_degrees_match_tuple_sums",
        ),
    ),
    Mutant(
        "degree-mod-fixed-8-bit-width",
        "src/diagvar/polyring.py",
        "map(operator.mod, self._t, repeat(m))",
        "map(operator.mod, self._t, repeat(255))",
        ("tests/test_polyring_properties.py::test_degrees_match_tuple_sums",),
    ),
    Mutant(
        "degree-fallback-byte-weights-dropped",
        "src/diagvar/polyring.py",
        "byte_weights = [c << (8 * j) for c in weight for j in range(step)]",
        "byte_weights = [c for c in weight for j in range(step)]",
        ("tests/test_polyring_properties.py::test_degrees_match_tuple_sums",),
    ),
    Mutant(
        "det-bound-row-filter-inverted",
        "src/diagvar/polymatrix.py",
        "if not (k + add) & flag}",
        "if (k + add) & flag}",
        (
            "tests/test_diagvariety.py::test_antidiag_coeff_small_values",
            "tests/test_polyring_properties.py::test_bounded_determinant_is_the_determinant_restricted",
        ),
    ),
    Mutant(
        "det-level-not-reduced",
        "src/diagvar/polymatrix.py",
        "if _reduce_in_place(acc, p):",
        "if acc:",
        (
            "tests/test_polymatrix.py::test_det_cancelling_mod_p_is_zero",
            "tests/test_polyring_properties.py::test_modp_matrix_results_are_canonical",
        ),
    ),
    Mutant(
        "substitute-bound-without-the-degree",
        "src/diagvar/polyring.py",
        "e = self.total_degree() * max(",
        "e = max(",
        ("tests/test_polyring_properties.py::test_substitute_is_ring_homomorphism",),
    ),
    Mutant(
        "substitute-touched-mask-test-dropped",
        "src/diagvar/polyring.py",
        "        if not reduce(operator.or_, self._t, 0) & touched:\n            return self\n",
        "",
        ("tests/test_diagvariety.py::test_apply_to_matrix_returns_untouched_entries_as_they_are",),
    ),
    Mutant(
        "substitute-one-mask-for-every-width",
        "src/diagvar/polyring.py",
        "touched = masks.get(w)",
        "touched = next(iter(masks.values()), None)",
        ("tests/test_diagvariety.py::test_apply_to_matrix_builds_the_mask_per_field_width",),
    ),
    Mutant(
        "format-degree-ties-ascending",
        "src/diagvar/polyring.py",
        "sorted(zip(f._degrees(), exps, f._t.values()), reverse=True)",
        "sorted(zip(map(operator.neg, f._degrees()), exps, f._t.values()))",
        (
            "tests/test_polyring.py::test_format_degree_tie_orders_row_major",
            "tests/test_polyring_properties.py::test_format_matches_the_tuple_oracle",
        ),
    ),
    Mutant(
        "with_domain-reduces-its-source",
        "src/diagvar/polyring.py",
        "_reduce_in_place(dict(self._t), dom.p)",
        "_reduce_in_place(self._t, dom.p)",
        ("tests/test_polyring.py::test_with_domain_reduces_mod_p",),
    ),
    Mutant(
        "cli-chosen-variant-ignored",
        "src/diagvar/cli.py",
        "    if chosen is not None:\n",
        "    if False:\n",
        (
            "tests/test_cli.py::test_a_chosen_variant_runs_alone",
            "tests/test_cli.py::test_single_command_records_equal_the_suites",
        ),
    ),
    Mutant(
        "forked-worker-drops-a-record",
        "src/diagvar/cli.py",
        "done.append((i, _run_cell(cells[i]), None))",
        "done.append((i, _run_cell(cells[i]), None)) if i else None",
        ("tests/test_cli.py::test_suite_parallel_matches_serial",),
    ),
    Mutant(
        "forked-highest-failing-index-raised",
        "src/diagvar/cli.py",
        "for _, _, err in triples:",
        "for _, _, err in reversed(triples):",
        ("tests/test_cli.py::test_a_worker_error_is_the_serial_error",),
    ),
    Mutant(
        "int-det-no-sign-flip-on-row-swap",
        "src/diagvar/intlattice.py",
        "                    sign = -sign\n",
        "                    sign = +sign\n",
        (
            "tests/test_intlattice.py::test_det_matches_permutation_expansion",
            "tests/test_intlattice.py::test_spans_agrees_with_unit_determinant_on_square_sets",
        ),
    ),
    Mutant(
        "int-det-divisor-not-updated",
        "src/diagvar/intlattice.py",
        "        prev = pivot\n",
        "        prev = 1\n",
        (
            "tests/test_intlattice.py::test_det_matches_permutation_expansion",
            "tests/test_intlattice.py::test_det_big_entries_stay_exact",
        ),
    ),
    Mutant(
        "inverse-read-without-d",
        "src/diagvar/intlattice.py",
        "[[d * x for x in row[n:]]",
        "[[x for x in row[n:]]",
        (
            "tests/test_intlattice.py::test_inverse_of_ones_step_matrices",
            "tests/test_intlattice.py::test_inverse_randomized_products",
        ),
    ),
    Mutant(
        "diag-of-powers-walk-off-by-one",
        "src/diagvar/intlattice.py",
        "        power = power * A\n        cols.append(power.diagonal())\n",
        "        cols.append(power.diagonal())\n        power = power * A\n",
        (
            "tests/test_intlattice.py::test_diag_of_powers_matrix_columns",
            "tests/test_diagvariety.py::test_sop_normal_form_displayed_values",
        ),
    ),
    Mutant(
        "bench-stored-median-off-its-runs",
        "tools/bench.py",
        '"median": statistics.median(runs)',
        '"median": statistics.median(runs[1:])',
        ("tests/test_bench.py::test_the_writer_stores_the_median_and_quartiles_of_each_sides_runs",),
    ),
    Mutant(
        "export-dropped-from-a-module-all",
        "src/diagvar/diagvariety.py",
        '    "sop_normal_form",\n',
        "",
        ("tests/test_public_api.py::test_the_public_names_are_listed_once_and_resolve",),
    ),
)


def mutated(text: str, m: Mutant) -> str:
    """text with m's snippet replaced; ValueError unless it occurs exactly once."""
    hits = text.count(m.snippet)
    if hits != 1:
        raise ValueError(f"{m.name}: snippet occurs {hits} times in {m.path}")
    return text.replace(m.snippet, m.replacement)


def _copy(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=skip)
        else:
            shutil.copy2(src, dest / name)


def _pytest(cwd: Path, tests) -> tuple[int, str]:
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-rf", "-p", "no:cacheprovider", *tests]
    run = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)
    failed = [line.split(" - ")[0][len("FAILED ") :] for line in run.stdout.splitlines() if line.startswith("FAILED ")]
    return run.returncode, failed[0] if failed else ""


def run(mutants) -> int:
    status = 0
    with tempfile.TemporaryDirectory(prefix="diagvar-mutants-") as tmp:
        clean = Path(tmp) / "clean"
        _copy(clean)
        tests = sorted({t for m in mutants for t in m.tests})
        code, _ = _pytest(clean, tests)
        if code:
            print(f"the named tests fail without a mutant (pytest exit {code})")
            return 2
        for m in mutants:
            work = Path(tmp) / m.name
            _copy(work)
            target = work / m.path
            try:
                target.write_text(mutated(target.read_text(), m))
            except ValueError as err:
                print(f"STALE     {err}")
                status = 1
                continue
            code, failed = _pytest(work, m.tests)
            if code == 1:
                print(f"caught    {m.name}: {failed}")
            else:
                print(f"SURVIVED  {m.name} (pytest exit {code})")
                status = 1
            shutil.rmtree(work)
    return status


def main(argv) -> int:
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}")
        return 2
    return run([m for m in MUTANTS if not argv or m.name in argv])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
