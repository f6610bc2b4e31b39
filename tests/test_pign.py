import dataclasses

import numpy as np
import pytest

from picardop import (
    GnnAggregateOperator,
    Graph,
    PicardConfig,
    add_dropin_noise,
    apply,
    gnn_lipschitz_report,
    neighborhood_membership_counts,
    picard_solve,
    pign_embed,
    planted_partition,
    rescale_to_contraction,
    run_pign_experiment,
    train_logistic_readout,
)
from picardop import picard
from picardop.errors import ConfigError, NonFiniteError
from picardop.pign import report_csv_text


def experiment_config(**overrides):
    cfg = {
        "dataset": {"n": 200, "d": 8, "p_in": 0.03, "p_out": 0.01,
                    "separation": 4.0, "seed": 7},
        "noise": {"p": 0.5, "magnitude": 3.0, "seed": 100},
        "operator": {"dim": 8, "target_contraction": 0.9, "seed": 200},
        "picard": {"alpha": 0.5, "epsilon": 1e-6, "max_iter": 10},
        "readout": {"lr": 0.5, "epochs": 300, "split_seed": 300},
        "mode": "anchored",
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            cfg[key] = dict(cfg[key], **value)
        else:
            cfg[key] = value
    return cfg


class TestPlantedPartition:
    def test_full_within_no_across_gives_two_cliques(self):
        ds = planted_partition(4, 3, p_in=1.0, p_out=0.0, separation=1.0, seed=0)
        assert list(ds.graph.neighborhood(0)) == [0, 1]
        assert list(ds.graph.neighborhood(2)) == [2, 3]
        assert list(ds.labels) == [0, 0, 1, 1]

    def test_deterministic_under_seed(self):
        a = planted_partition(200, 8, 0.1, 0.01, 2.0, seed=7)
        b = planted_partition(200, 8, 0.1, 0.01, 2.0, seed=7)
        assert np.array_equal(a.graph.indptr, b.graph.indptr)
        assert np.array_equal(a.graph.indices, b.graph.indices)
        assert np.array_equal(a.features, b.features)
        c = planted_partition(200, 8, 0.1, 0.01, 2.0, seed=8)
        assert not np.array_equal(a.features, c.features)

    def test_features_are_read_only_flat_block_values(self):
        ds = planted_partition(6, 3, 0.5, 0.1, 2.0, seed=1)
        assert type(ds.features) is np.ndarray and ds.features.shape == (18,)
        assert not ds.features.flags.writeable
        # node v's block is entries v*d .. v*d + d - 1, with the class mean on the first
        rng = np.random.default_rng(1)
        rng.random((6, 6))
        means = np.zeros((6, 3))
        means[:, 0] = (2 * ds.labels - 1) * 1.0
        assert ds.features.tolist() == (means + rng.standard_normal((6, 3))).ravel().tolist()

    @pytest.mark.parametrize("seed", [0, 7, 11])
    def test_edges_match_pairwise_coin_flips(self, seed):
        n, p_in, p_out = 40, 0.3, 0.05
        ds = planted_partition(n, 2, p_in, p_out, 1.0, seed=seed)
        coin = np.random.default_rng(seed).random((n, n))
        labels = ds.labels
        want = [(u, v) for u in range(n) for v in range(u + 1, n)
                if coin[u, v] < (p_in if labels[u] == labels[v] else p_out)]
        got = [(u, int(v)) for u in range(n) for v in ds.graph.neighborhood(u) if v > u]
        assert got == want

    def test_labels_balanced(self):
        ds = planted_partition(50, 4, 0.2, 0.05, 1.0, seed=3)
        assert int(ds.labels.sum()) == 25

    def test_class_mean_separation(self):
        ds = planted_partition(2000, 4, 0.01, 0.005, 6.0, seed=5)
        X = ds.features.reshape(2000, 4)
        gap = X[ds.labels == 1, 0].mean() - X[ds.labels == 0, 0].mean()
        assert gap == pytest.approx(6.0, abs=0.2)

    def test_invalid_probabilities(self):
        with pytest.raises(ValueError):
            planted_partition(10, 2, 0.1, 0.1, 1.0, seed=0)
        with pytest.raises(ValueError):
            planted_partition(10, 2, 1.2, 0.1, 1.0, seed=0)
        with pytest.raises(ValueError):
            planted_partition(11, 2, 0.5, 0.1, 1.0, seed=0)

    def test_params_recorded(self):
        ds = planted_partition(10, 2, 0.5, 0.1, 1.5, seed=9)
        assert ds.params["p_in"] == 0.5
        assert ds.params["seed"] == 9


class TestDropinNoise:
    def test_zero_fraction_is_identity(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal(15)
        out = add_dropin_noise(X, 0.0, 1.0, seed=1)
        assert np.array_equal(out, X) and out is not X

    def test_full_fraction_hits_every_entry(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal(12)
        out = add_dropin_noise(X, 1.0, 2.5, seed=2)
        assert np.allclose(out, X + 2.5)

    def test_exact_count_and_magnitude(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal(100)
        out = add_dropin_noise(X, 0.5, 3.0, seed=3)
        delta = out - X
        changed = delta != 0
        assert int(changed.sum()) == 50
        assert np.allclose(delta[changed], 3.0)

    def test_floor_count(self):
        X = np.zeros(9)
        out = add_dropin_noise(X, 0.5, 1.0, seed=4)
        assert int((out != 0).sum()) == 4  # floor(4.5)

    def test_deterministic(self):
        X = np.zeros(36)
        a = add_dropin_noise(X, 0.3, 1.0, seed=5)
        b = add_dropin_noise(X, 0.3, 1.0, seed=5)
        assert np.array_equal(a, b)

    def test_returns_a_read_only_copy_of_the_input_shape(self):
        for X in (np.zeros(6), np.zeros((2, 3))):
            out = add_dropin_noise(X, 0.5, 1.0, seed=6)
            assert type(out) is np.ndarray and out.shape == X.shape
            assert not out.flags.writeable and not X.any()

    def test_validation(self):
        X = np.zeros(4)
        with pytest.raises(ValueError):
            add_dropin_noise(X, 1.5, 1.0, seed=0)
        with pytest.raises(ValueError):
            add_dropin_noise(X, 0.5, 0.0, seed=0)

    def test_complex_or_non_finite_features_are_refused(self):
        with pytest.raises(ValueError, match="expected real values, got dtype complex128"):
            add_dropin_noise(np.ones(4, dtype=complex), 0.5, 1.0, seed=0)
        with pytest.raises(NonFiniteError, match="block values must be finite"):
            add_dropin_noise(np.array([0.0, np.nan, 0.0, 0.0]), 0.5, 1.0, seed=0)


def certified_operator(rng, graph, d, target=0.9):
    W0 = rng.standard_normal((d, d))
    alpha_max = int(neighborhood_membership_counts(graph).max())
    return GnnAggregateOperator(graph, rescale_to_contraction(W0, alpha_max, target))


class TestPignEmbed:
    def test_full_smoothing_freezes_features(self):
        rng = np.random.default_rng(10)
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        op = certified_operator(rng, g, 3)
        X = rng.standard_normal(12)
        emb, trace = pign_embed(op, X, alpha=1.0, n=50, epsilon=1e-9)
        assert trace.converged
        assert trace.iterations_used == 1
        assert np.array_equal(emb, X)

    def test_zero_features_stay_zero(self):
        rng = np.random.default_rng(11)
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        op = certified_operator(rng, g, 2)
        X = np.zeros(10)
        emb, trace = pign_embed(op, X, alpha=0.5, n=20, epsilon=1e-12)
        assert op.space.norm("direct-sum")(emb) == 0.0
        assert trace.converged

    def test_step_ratio_bounded_by_damped_contraction(self):
        rng = np.random.default_rng(12)
        g = Graph(3, [(0, 1), (1, 2)], include_self=True)
        op = certified_operator(rng, g, 2, target=0.9)
        report = gnn_lipschitz_report(op)
        alpha = 0.5
        bound = alpha + (1 - alpha) * report.product + 1e-6
        X = rng.standard_normal(6)
        _, trace = pign_embed(op, X, alpha=alpha, n=200, epsilon=1e-8)
        steps = trace.step_norms
        for i in range(1, len(steps) - 1):
            if steps[i] < 1e-13:
                continue
            assert steps[i + 1] <= bound * steps[i]

    def test_bit_identical_to_damped_engine(self):
        rng = np.random.default_rng(13)
        g = Graph(4, [(0, 1), (0, 2), (2, 3)])
        op = certified_operator(rng, g, 3)
        X = rng.standard_normal(12)
        emb, trace = pign_embed(op, X, alpha=0.3, n=25, epsilon=1e-10)
        # the damped update of picard_solve: lambda = 1, f = 0, smoothing alpha
        cfg = PicardConfig(1.0, 1e-10, 25, smoothing=0.3, norm_kind="direct-sum")
        emb2, trace2 = picard_solve(op, cfg, np.zeros(12), x0=X)
        assert emb.tobytes() == emb2.tobytes()
        assert trace.steps == trace2.steps

    @pytest.mark.parametrize("epsilon", [0.0, -1.0, float("nan")])
    def test_bad_epsilon_is_refused_before_any_apply(self, monkeypatch, epsilon):
        rng = np.random.default_rng(13)
        op = certified_operator(rng, Graph(4, [(0, 1), (0, 2), (2, 3)]), 3)
        applied = []
        monkeypatch.setattr(picard, "apply", lambda op, y: applied.append(y) or op(y))
        with pytest.raises(ValueError, match=r"^epsilon must be positive$"):
            pign_embed(op, rng.standard_normal(12), 0.5, 7, epsilon)
        assert applied == []

    def test_warns_when_not_certified(self):
        rng = np.random.default_rng(14)
        g = Graph(3, [(0, 1), (1, 2)])
        op = GnnAggregateOperator(g, 5.0 * np.eye(2))
        X = rng.standard_normal(6)
        with pytest.warns(UserWarning, match="not contraction-certified"):
            pign_embed(op, X, alpha=0.5, n=3, epsilon=1e-6)

    def test_anchored_mode_has_nontrivial_fixed_point(self):
        rng = np.random.default_rng(15)
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        op = certified_operator(rng, g, 2)
        X = rng.standard_normal(8)
        emb, trace = pign_embed(op, X, alpha=0.5, n=500, epsilon=1e-12, anchor=X)
        assert trace.converged
        assert op.space.norm("direct-sum")(emb) > 0.1


class TestLogisticReadout:
    def test_separable_reaches_perfect_accuracy(self):
        rng = np.random.default_rng(20)
        n = 100
        X = rng.standard_normal((n, 4))
        X[:, 0] = np.where(X[:, 0] >= 0, X[:, 0] + 1.0, X[:, 0] - 1.0)  # margin 1
        y = (X[:, 0] > 0).astype(int)
        _, acc = train_logistic_readout(X, y, split_seed=1, lr=0.5, epochs=500)
        assert acc == 1.0

    def test_shuffled_labels_near_chance(self):
        rng = np.random.default_rng(21)
        n = 200
        X = rng.standard_normal((n, 8))
        accs = []
        for seed in range(20):
            y = np.random.default_rng(seed).permutation(np.repeat([0, 1], n // 2))
            _, acc = train_logistic_readout(X, y, split_seed=seed, lr=0.5, epochs=200)
            accs.append(acc)
        assert 0.35 <= float(np.mean(accs)) <= 0.65

    def test_zero_embeddings_give_majority_rate(self):
        n = 40
        X = np.zeros((n, 3))
        y = np.array([1] * 28 + [0] * 12)
        _, acc = train_logistic_readout(X, y, split_seed=2, lr=0.5, epochs=100)
        # constant predictor: learn the train prior, predict the majority class
        rng = np.random.default_rng(2)
        perm = rng.permutation(n)
        train, test = perm[:32], perm[32:]
        majority = int(y[train].sum() * 2 >= len(train))
        expected = float(np.mean(y[test] == majority))
        assert acc == expected

    def test_accepts_direct_sum_embeddings(self):
        # flat block values reshaped by their space read as the matrix they came from
        rng = np.random.default_rng(22)
        M = rng.standard_normal((20, 3))
        y = np.repeat([0, 1], 10)
        op = GnnAggregateOperator(Graph(20), np.eye(3))
        flat = op.space.wrap(M)
        (w, acc), *rest = (train_logistic_readout(X, y, split_seed=3, lr=0.5, epochs=50)
                           for X in (M, flat.reshape(op.space.shape), M.tolist()))
        assert 0.0 <= acc <= 1.0
        assert all(a == acc and np.array_equal(v, w) for v, a in rest)

    def test_flat_block_values_are_refused(self):
        # flat values have no (n, d) matrix until reshaped by their space
        X = np.array([1.0, 1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match=r"^embeddings must be an \(n, d\) matrix, "
                                             r"got shape \(4,\)$"):
            train_logistic_readout(X, np.array([0, 1, 0]))

    @pytest.mark.parametrize("bad", [2, -1, 0.5, np.nan])
    def test_label_outside_zero_one_is_refused(self, bad):
        X = np.random.default_rng(24).standard_normal((20, 3))
        y = np.repeat([0.0, 1.0], 10)
        y[7] = bad
        with pytest.raises(ValueError, match=r"^labels must be 0 or 1, got "):
            train_logistic_readout(X, y, split_seed=5, lr=0.5, epochs=50)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_split_leaving_an_empty_set_is_refused(self, n):
        # round(0.8 n) train nodes: none for n = 0, no test node for n = 1, 2
        X = np.random.default_rng(25).standard_normal((n, 3))
        with pytest.raises(ValueError, match=rf"^an 80/20 split of {n} nodes leaves an empty"):
            train_logistic_readout(X, np.arange(n) % 2, split_seed=5, lr=0.5, epochs=50)

    def test_non_finite_train_embedding_raises_at_first_epoch(self):
        rng = np.random.default_rng(23)
        X = rng.standard_normal((20, 3))
        y = np.repeat([0, 1], 10)
        train = np.random.default_rng(4).permutation(20)[:16]
        X[train[0], 1] = np.inf
        with (np.errstate(invalid="ignore"),
              pytest.raises(ValueError, match=r"^non-finite logistic loss at epoch 0")):
            train_logistic_readout(X, y, split_seed=4, lr=0.5, epochs=50)


class TestExperiment:
    def test_report_csv_is_reproducible(self):
        cfg = experiment_config()
        a = report_csv_text(run_pign_experiment(cfg, seeds=[0, 1]))
        b = report_csv_text(run_pign_experiment(cfg, seeds=[0, 1]))
        assert a == b
        assert a.startswith("seed,mode,noise_p,pign_acc,baseline_acc,iters_used\n")

    def test_noise_free_runs_keep_pign_competitive(self):
        cfg = experiment_config(noise={"p": 0.0})
        results = run_pign_experiment(cfg, seeds=list(range(10)))
        pign = float(np.mean([r.readout_accuracy for r in results]))
        base = float(np.mean([r.baseline_accuracy for r in results]))
        assert pign >= base - 0.02

    def test_baseline_is_single_application(self):
        cfg = experiment_config()
        results = run_pign_experiment(cfg, seeds=[4])
        r = results[0]
        assert 0.0 <= r.baseline_accuracy <= 1.0
        assert r.trace.iterations_used <= 10

    def test_homogeneous_mode(self):
        cfg = experiment_config(mode="homogeneous")
        results = run_pign_experiment(cfg, seeds=[0])
        assert results[0].mode == "homogeneous"

    def test_mode_validated(self):
        cfg = experiment_config(mode="whatever")
        with pytest.raises(ConfigError):
            run_pign_experiment(cfg, seeds=[0])

    def test_operator_dim_must_match(self):
        cfg = experiment_config(operator={"dim": 5})
        with pytest.raises(ConfigError):
            run_pign_experiment(cfg, seeds=[0])

    @pytest.mark.parametrize("overrides, field", [
        ({"dataset": {"n": 7}}, "dataset.n"),
        ({"dataset": {"n": 2}}, "dataset.n"),
        ({"dataset": {"p_out": 0.05}}, "dataset.p_out"),
        ({"noise": {"magnitude": 0.0}}, "noise.magnitude"),
        ({"noise": 5}, "noise"),
        ({"operator": {"seed": "x"}}, "operator.seed"),
        ({"picard": {"epsilon": float("inf")}}, "picard.epsilon"),
        ({"picard": {"alpha": None}}, "picard.alpha"),
        ({"readout": {"epochs": 0}}, "readout.epochs"),
    ], ids=["odd-n", "two-nodes", "p_out-above-p_in", "zero-magnitude", "section-not-object",
            "string-seed", "infinite-epsilon", "missing-alpha", "zero-epochs"])
    def test_bad_config_value_names_field(self, overrides, field):
        with pytest.raises(ConfigError) as err:
            run_pign_experiment(experiment_config(**overrides), seeds=[0])
        assert err.value.field == field

    def test_missing_optional_sections_take_defaults(self):
        cfg = experiment_config()
        del cfg["operator"], cfg["readout"]
        defaults = experiment_config(operator={"target_contraction": 0.9, "seed": 0},
                                     readout={"lr": 0.5, "epochs": 500, "split_seed": 0})
        assert (report_csv_text(run_pign_experiment(cfg, seeds=[3]))
                == report_csv_text(run_pign_experiment(defaults, seeds=[3])))

    def test_embeddings_are_flat_block_values_read_reshaped_by_the_readout(self):
        cfg = experiment_config(readout={"epochs": 50})
        n, d = cfg["dataset"]["n"], cfg["dataset"]["d"]
        results = run_pign_experiment(cfg, seeds=[0, 1])
        labels = np.repeat([0, 1], n // 2)
        reread = []
        for r in results:
            assert type(r.embeddings) is np.ndarray and r.embeddings.shape == (n * d,)
            _, acc = train_logistic_readout(r.embeddings.reshape(n, d), labels,
                                            300 + r.seed, 0.5, 50)
            reread.append(dataclasses.replace(r, readout_accuracy=acc))
        assert report_csv_text(reread) == report_csv_text(results)

    def test_csv_written(self, tmp_path):
        cfg = experiment_config()
        path = tmp_path / "report.csv"
        results = run_pign_experiment(cfg, seeds=[0], csv_path=path)
        text = path.read_text()
        assert text == report_csv_text(results)
