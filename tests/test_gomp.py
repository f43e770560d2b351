import numpy as np
import pytest

from textomp import (GOMPConfig, Group, GroupStructure, OMPConfig,
                     SparseMatrix, logistic, omp, run_gomp, run_omp)
from textomp.gomp import remove_overlap, score_group_orthonormal, select_group
from textomp.logistic import objective, residual

from conftest import (group_trajectory_errors, random_design, random_labels,
                      stateless_fit_restricted)


def candidates_without(gone, n_cols=10):
    """A candidate mask over n_cols columns that is False at gone."""
    mask = np.ones(n_cols, dtype=bool)
    mask[list(gone)] = False
    return mask


# -- scores ---------------------------------------------------------------------

def test_orthonormal_score_of_singleton_is_squared_correlation(rng):
    dense, X = random_design(rng, 5, 6)
    r = rng.normal(size=5)
    assert score_group_orthonormal(X.correlations(r), [2]) \
        == pytest.approx(float(dense[:, 2] @ r) ** 2, rel=1e-12)


def test_orthonormal_score_zero_when_group_orthogonal_to_residual():
    dense = np.column_stack([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    X = SparseMatrix.from_dense(dense)
    r = np.array([0.0, 0.0, 5.0])
    assert score_group_orthonormal(X.correlations(r), [0, 1]) == 0.0


def test_orthonormal_score_matches_two_term_recomputation(rng):
    dense, X = random_design(rng, 5, 6)
    r = rng.normal(size=5)
    expected = float((dense[:, 1] @ r) ** 2 + (dense[:, 4] @ r) ** 2)
    assert score_group_orthonormal(X.correlations(r), (1, 4)) \
        == pytest.approx(expected, rel=1e-12)


def test_empty_group_scores_negative_infinity(rng):
    _, X = random_design(rng, 4, 3)
    r = np.ones(4)
    assert score_group_orthonormal(X.correlations(r), ()) == float("-inf")


def test_averaged_score_is_orthonormal_over_size(rng):
    dense, X = random_design(rng, 7, 8)
    r = rng.normal(size=7)
    g = Group.of("g", [0, 3, 5])
    s = Group.of("s", [6])
    for structure in (GroupStructure([g]), GroupStructure([s])):
        _, score, _ = select_group(X, structure, r, criterion="averaged")
        _, energy, _ = select_group(X, structure, r,
                                    criterion="orthonormal")
        assert score == pytest.approx(energy / len(structure[0]), rel=1e-12)


def test_averaged_score_prefers_small_informative_group():
    # two strong columns alone vs the same two plus 100 useless ones:
    # equal raw energy, so the averaged score favors the small group 51x
    n = 4
    r = np.array([1.0, 1.0, 0.0, 0.0])
    good = np.column_stack([r, r])
    bad = np.zeros((n, 100))
    bad[2, :50] = 1.0
    bad[3, 50:] = 1.0
    dense = np.column_stack([good, bad, np.ones(n)])
    X = SparseMatrix.from_dense(dense, bias_col=102)
    small = Group.of("small", [0, 1])
    big = Group.of("big", range(102))
    corr = X.correlations(r)
    assert score_group_orthonormal(corr, small.members) \
        == pytest.approx(score_group_orthonormal(corr, big.members))
    pos, s_small, _ = select_group(X, GroupStructure([big, small]), r,
                                   criterion="averaged")
    assert pos == 1
    _, s_big, _ = select_group(X, GroupStructure([big]), r,
                               criterion="averaged")
    assert s_small == pytest.approx(51.0 * s_big, rel=1e-12)


# -- select_group ------------------------------------------------------------------

def test_select_group_prefers_aligned_singleton():
    dense = np.column_stack([[1.0, 0.0], [0.0, 1.0]])
    X = SparseMatrix.from_dense(dense)
    groups = GroupStructure([("a", [0]), ("b", [1])])
    pos, _, _ = select_group(X, groups, np.array([3.0, 0.1]))
    assert pos == 0


def test_select_group_tie_takes_first_position(rng):
    dense, X = random_design(rng, 5, 4)
    groups = GroupStructure([("a", [1, 2]), ("b", [1, 2])])
    r = rng.normal(size=5)
    pos, _, _ = select_group(X, groups, r)
    assert pos == 0


def test_select_group_matches_exhaustive_scan(rng):
    dense, X = random_design(rng, 10, 20)
    members = [sorted(rng.choice(19, size=int(rng.integers(1, 6)),
                                 replace=False).tolist())
               for _ in range(8)]
    groups = GroupStructure([(f"g{i}", m) for i, m in enumerate(members)])
    r = rng.normal(size=10)
    # stripping the first two groups' members empties them and shrinks others
    stripped = remove_overlap(
        groups, candidates_without(members[0] + members[1], 20))
    assert len(stripped[0]) == len(stripped[1]) == 0
    corr = dense.T @ r
    for structure in (groups, stripped):
        energies = [float(np.sum(corr[list(g.members)] ** 2)) if len(g)
                    else -np.inf for g in structure]
        for criterion, scores in (
                ("orthonormal", energies),
                ("averaged", [e / max(len(g), 1)
                              for e, g in zip(energies, structure)])):
            expected = int(np.argmax(scores))
            pos, score, norm = select_group(X, structure, r,
                                            criterion=criterion)
            assert pos == expected
            assert score == pytest.approx(scores[expected], rel=1e-12)
            assert norm == pytest.approx(np.sqrt(energies[expected]),
                                         rel=1e-12)


def test_select_group_all_empty_errors(rng):
    _, X = random_design(rng, 4, 3)
    groups = GroupStructure([Group("a", ()), Group("b", ())])
    with pytest.raises(ValueError):
        select_group(X, groups, np.ones(4))


# -- remove_overlap -----------------------------------------------------------------

def test_remove_overlap_set_difference():
    groups = GroupStructure([("g1", [1, 2, 3]), ("g2", [3, 4])])
    out = remove_overlap(groups, candidates_without({3, 4}))
    assert out[0].members == (1, 2)
    assert out[1].members == ()
    assert out.names() == ["g1", "g2"]


def test_remove_overlap_disjoint_unchanged():
    groups = GroupStructure([("g1", [1, 2]), ("g2", [5, 6])])
    out = remove_overlap(groups, candidates_without({3, 4}))
    assert out[0].members == (1, 2)
    assert out[1].members == (5, 6)


def test_remove_overlap_superset_empties_group(rng):
    _, X = random_design(rng, 6, 5)
    groups = remove_overlap(GroupStructure([("g1", [1, 2])]),
                            candidates_without({0, 1, 2, 3}))
    assert groups[0].members == ()
    with pytest.raises(ValueError):
        select_group(X, groups, np.ones(6))


# -- run_gomp -----------------------------------------------------------------------

def test_singleton_groups_with_averaged_criterion_replay_plain_selection(rng):
    _, X = random_design(rng, 25, 10)
    y = random_labels(rng, 25)
    singletons = GroupStructure([(f"s{j}", [j]) for j in range(9)])
    # epsilon=2 stops OMP after 3 of 6 selections; group OMP must stop
    # there too, which needs both to threshold the same correlation norm
    for epsilon in (0.0, 2.0):
        cfg = GOMPConfig(budget=6, lam=0.5, epsilon=epsilon,
                         criterion="averaged", augment_singletons=False)
        gmodel, gtraj = run_gomp(X, y, singletons, cfg)
        omodel, otraj = run_omp(X, y, OMPConfig(budget=6, lam=0.5,
                                                epsilon=epsilon))
        picked = [rec.members_added[0] for rec in gtraj.records]
        assert picked == otraj.selected_indices(), epsilon
        assert gtraj.selected_indices() == otraj.selected_indices()
        np.testing.assert_allclose(gmodel.theta, omodel.theta,
                                   atol=1e-9)


def test_normalize_columns_undoes_a_scaled_column_in_singleton_groups(rng):
    dense, X = random_design(rng, 30, 8)
    y = random_labels(rng, 30)
    singletons = GroupStructure([(f"s{j}", [j]) for j in range(7)])
    for criterion in ("orthonormal", "averaged"):
        def config(normalize):
            return GOMPConfig(budget=1, lam=1.0, criterion=criterion,
                              augment_singletons=False,
                              normalize_columns=normalize)
        first = run_gomp(X, y, singletons, config(True))[1] \
            .selected_indices()[0]
        big = 0 if first != 0 else 1
        scaled_dense = dense.copy()
        scaled_dense[:, big] *= 1000.0
        scaled = SparseMatrix.from_dense(scaled_dense, bias_col=7)
        _, raw_traj = run_gomp(scaled, y, singletons, config(False))
        _, norm_traj = run_gomp(scaled, y, singletons, config(True))
        assert raw_traj.selected_indices() == [big], criterion
        assert norm_traj.selected_indices() == [first], criterion


def test_overlapping_groups_share_predictive_feature():
    y = np.array([1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0])
    col_pred = y.copy()
    col_n1 = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    col_n2 = np.array([1.0, 1.0, -1.0, -1.0, 1.0, 1.0, -1.0, -1.0])
    dense = np.column_stack([col_pred, col_n1, col_n2, np.ones(8)])
    X = SparseMatrix.from_dense(dense, bias_col=3)
    groups = GroupStructure([("a", [0, 1]), ("b", [0, 2])])
    cfg = GOMPConfig(budget=10, lam=1.0, criterion="averaged",
                     augment_singletons=False, checkpoint_interval=1)

    model, traj = run_gomp(X, y, groups, cfg)
    assert not group_trajectory_errors(dense, X, y, groups, "averaged", traj)
    # the tied groups both score (col_pred . y)^2 / 2; "a" wins by position
    assert traj.records[0].name == "a"
    first_score = (float(col_pred @ y) ** 2) / 2
    assert traj.records[0].score == pytest.approx(first_score, rel=1e-12)
    # after removal, b keeps only its noise column; its score against the
    # new residual is that column's squared correlation (scalar oracle)
    after_a = remove_overlap(groups, candidates_without(
        traj.records[0].members_added, 4))
    assert after_a[1].members == (2,)
    if len(traj.records) > 1:
        rec = traj.records[1]
        r1_theta = traj.checkpoints[0][1]
        r1 = residual(X, r1_theta, y)
        assert rec.name == "b"
        assert rec.members_added == (2,)
        assert rec.score == pytest.approx(float(col_n2 @ r1) ** 2, rel=1e-10)
        assert rec.score < first_score


def test_budget_overshoot_stops_after_two_groups(rng):
    _, X = random_design(rng, 30, 10, density=1.0)
    y = random_labels(rng, 30)
    groups = GroupStructure([("a", [0, 1, 2]), ("b", [3, 4, 5]),
                             ("c", [6, 7, 8])])
    cfg = GOMPConfig(budget=5, lam=1.0, augment_singletons=False)
    model, traj = run_gomp(X, y, groups, cfg)
    assert len(traj.records) == 2
    assert model.active.n_selected(X.bias_col) == 6


def test_inactive_groups_stay_disjoint_from_active_set(rng):
    for trial in range(10):
        local = np.random.default_rng(trial)
        dense, X = random_design(local, 15, 12)
        y = random_labels(local, 15)
        groups = GroupStructure([
            (f"g{i}", sorted(local.choice(11, size=int(local.integers(1, 5)),
                                          replace=False).tolist()))
            for i in range(6)
        ])
        cfg = GOMPConfig(budget=11, lam=0.5, augment_singletons=False,
                         checkpoint_interval=1)
        _, traj = run_gomp(X, y, groups, cfg)
        assert traj.records
        assert not group_trajectory_errors(dense, X, y, groups,
                                           cfg.criterion, traj), trial


def test_no_feature_enters_twice_despite_overlap(rng):
    _, X = random_design(rng, 20, 10)
    y = random_labels(rng, 20)
    groups = GroupStructure([("a", [0, 1, 2]), ("b", [2, 3, 4]),
                             ("c", [4, 5, 0]), ("d", [6, 7])])
    cfg = GOMPConfig(budget=9, lam=0.5, augment_singletons=False)
    _, traj = run_gomp(X, y, groups, cfg)
    added = [j for rec in traj.records for j in rec.members_added]
    assert len(added) == len(set(added))


def test_augment_singletons_config_appends_every_feature(rng):
    _, X = random_design(rng, 20, 6)
    y = random_labels(rng, 20)
    cfg = GOMPConfig(budget=5, lam=0.5, augment_singletons=True)
    model, traj = run_gomp(X, y, GroupStructure([("a", [0, 1])]), cfg)
    names = {rec.name for rec in traj.records}
    assert names <= {"a"} | {f"single_{j}" for j in range(5)}
    assert model.active.n_selected(X.bias_col) >= 1


def test_objective_never_increases_across_group_iterations(rng):
    _, X = random_design(rng, 25, 12)
    y = random_labels(rng, 25)
    groups = GroupStructure([("a", [0, 1, 2]), ("b", [2, 5]),
                             ("c", [6, 7, 8, 9]), ("d", [10])])
    cfg = GOMPConfig(budget=11, lam=0.5, augment_singletons=False,
                     checkpoint_interval=1)
    _, traj = run_gomp(X, y, groups, cfg)
    values = [objective(X, y, theta, 0.5) for _, theta in traj.checkpoints]
    for prev, cur in zip(values, values[1:]):
        assert cur <= prev + 1e-6


def test_shared_refit_state_matches_stateless_refits(monkeypatch):
    groups = GroupStructure([("a", [0, 1, 2]), ("b", [2, 5, 6]),
                             ("c", [7, 8, 9, 10]), ("d", [10, 11, 12]),
                             ("e", [13, 14])])
    for seed in (0, 1):
        rng = np.random.default_rng(seed)
        _, X = random_design(rng, 80, 30)
        y = random_labels(rng, 80)
        for lam in (0.1, 1.0, 10.0):
            cfg = GOMPConfig(budget=20, lam=lam, criterion="orthonormal",
                             checkpoint_interval=1)
            _, shared = run_gomp(X, y, groups, cfg)
            with monkeypatch.context() as m:
                m.setattr(omp, "fit_restricted", stateless_fit_restricted)
                _, fresh = run_gomp(X, y, groups, cfg)
            assert shared.selected_indices() == fresh.selected_indices()
            assert any(len(rec.members_added) > 1 for rec in shared.records)
            assert len(shared.checkpoints) == len(fresh.checkpoints)
            for (_, a), (_, b) in zip(shared.checkpoints, fresh.checkpoints):
                assert objective(X, y, a, lam) == pytest.approx(
                    objective(X, y, b, lam), rel=1e-12, abs=0)
            assert sum(rec.cg_steps for rec in shared.records) > 0
            assert sum(rec.hessian_builds for rec in shared.records) \
                < sum(rec.hessian_builds for rec in fresh.records)


def test_records_carry_the_work_of_their_refit(monkeypatch, rng):
    _, X = random_design(rng, 40, 12)
    y = random_labels(rng, 40)
    models = []

    def fit(*args, **kwargs):
        models.append(logistic.fit_restricted(*args, **kwargs))
        return models[-1]

    monkeypatch.setattr(omp, "fit_restricted", fit)
    groups = GroupStructure([("a", [0, 1, 2]), ("b", [2, 5, 6])])
    _, traj = run_gomp(X, y, groups, GOMPConfig(budget=8, lam=1.0))
    assert len(models) == len(traj.records) + 1  # after the bias-only fit
    for rec, model in zip(traj.records, models[1:]):
        assert (rec.converged, rec.n_iter, rec.cg_steps, rec.hessian_builds) \
            == (model.converged, model.n_iter, model.cg_steps,
                model.hessian_builds)
    assert sum(rec.n_iter for rec in traj.records) > 0


def test_records_carry_original_composition(rng):
    _, X = random_design(rng, 15, 8)
    y = random_labels(rng, 15)
    groups = GroupStructure([("a", [0, 1, 2]), ("b", [2, 3])])
    cfg = GOMPConfig(budget=7, lam=0.5, augment_singletons=False)
    _, traj = run_gomp(X, y, groups, cfg)
    by_name = {rec.name: rec for rec in traj.records}
    if "b" in by_name:
        assert by_name["b"].members_original == (2, 3)


def test_group_structure_validation(rng):
    _, X = random_design(rng, 5, 4)
    y = random_labels(rng, 5)
    cfg = GOMPConfig(budget=2, augment_singletons=False)
    with pytest.raises(ValueError):
        run_gomp(X, y, GroupStructure([("a", [9])]), cfg)
    with pytest.raises(ValueError):
        run_gomp(X, y, GroupStructure([("a", [3])]), cfg)  # bias grouped
    with pytest.raises(ValueError):
        GroupStructure([("a", [0]), ("a", [1])])
    with pytest.raises(ValueError):
        GOMPConfig(criterion="nope")
