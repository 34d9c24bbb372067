"""Tests for operator reconstruction and tensor management."""

import dataclasses
import hashlib
import importlib.util
import json
import sys
import threading
from pathlib import Path

import pytest

import repro.api as api
from repro.bench.harness import capture_workload
from repro.bench.throughput import synthesize_fleet
from repro.core import reconstruction
from repro.core.pipeline import run_replay
from repro.core.reconstruction import OperatorReconstructor, ReconstructionError
from repro.core.replayer import ReplayConfig
from repro.core.selection import OperatorSelector
from repro.core.tensors import EmbeddingValueConfig, TensorManager, classify_tensors
from repro.et.schema import ETNode
from repro.et.trace import ExecutionTrace
from repro.torchsim import Runtime, Tensor
from repro.torchsim.dtypes import DType
from repro.torchsim.ops.registry import OperatorRegistry
from repro.workloads.ddp import DistributedRunner
from repro.workloads.param_linear import ParamLinearConfig, ParamLinearWorkload
from tests.conftest import make_small_rm


class TestOperatorReconstructor:
    def _addmm_node(self, trace):
        return trace.find_by_name("aten::addmm")[0]

    def test_reconstruct_linear_node(self, captured_runtime_pieces):
        trace = captured_runtime_pieces["trace"]
        node = trace.find_by_name("aten::linear")[0]
        reconstructed = OperatorReconstructor().reconstruct(node)
        assert reconstructed.op_name == "aten::linear"
        assert "graph(" in reconstructed.ir_text
        assert reconstructed.function.num_inputs == len(reconstructed.tensor_arg_positions)

    def test_reconstructed_callable_executes(self, captured_runtime_pieces):
        trace = captured_runtime_pieces["trace"]
        node = self._addmm_node(trace)
        reconstructed = OperatorReconstructor().reconstruct(node)
        rt = Runtime("A100")
        inputs = [Tensor.empty(tuple(shape)) for shape in node.input_shapes if shape]
        out = reconstructed.function(rt, *inputs)
        assert out.shape == tuple(node.output_shapes[0])
        assert rt.gpu.launches

    def test_cache_returns_same_object(self, captured_runtime_pieces):
        trace = captured_runtime_pieces["trace"]
        node = self._addmm_node(trace)
        first = OperatorReconstructor().reconstruct(node)
        second = OperatorReconstructor().reconstruct(node)
        assert first.function is second.function
        assert first.ir_text is second.ir_text
        assert first.node_id == second.node_id == node.id

    def test_annotation_node_rejected(self):
        with pytest.raises(ReconstructionError):
            OperatorReconstructor().reconstruct(ETNode(name="## forward ##", id=2, parent=1))

    def test_unknown_operator_rejected(self):
        node = ETNode(name="aten::not_an_op", id=2, parent=1,
                      op_schema="aten::not_an_op(Tensor x) -> Tensor")
        with pytest.raises(ReconstructionError, match="not registered"):
            OperatorReconstructor().reconstruct(node)

    def test_invalid_schema_rejected(self):
        node = ETNode(name="aten::mm", id=2, parent=1, op_schema="garbage schema text")
        with pytest.raises(ReconstructionError):
            OperatorReconstructor().reconstruct(node)

    def test_non_tensor_constants_baked_in(self, captured_runtime_pieces):
        trace = captured_runtime_pieces["trace"]
        node = trace.find_by_name("aten::mse_loss")[0]
        reconstructed = OperatorReconstructor().reconstruct(node)
        # mse_loss(self, target, reduction=1): two tensor inputs only.
        assert reconstructed.function.num_inputs == 2


# ----------------------------------------------------------------------
# The process-wide, content-addressed reconstruction cache
# ----------------------------------------------------------------------
def _reconstruct_all(trace):
    reconstructor = OperatorReconstructor()
    return [
        reconstructor.reconstruct(entry.node)
        for entry in OperatorSelector().select(trace).supported_entries()
    ]


def _with_constant(node: ETNode, value, type_str: str = "Int") -> ETNode:
    """A copy of ``node`` whose last input is the constant ``value``."""
    return dataclasses.replace(
        node,
        inputs=[*node.inputs[:-1], value],
        input_types=[*node.input_types[:-1], type_str],
    )


def _canonical_sha(payload: dict) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


class TestSharedReconstruction:
    @pytest.fixture(scope="class")
    def fleet(self, tmp_path_factory):
        """Two ranks written out and loaded back, so no node is shared
        between them in memory."""
        directory = tmp_path_factory.mktemp("fleet")
        loaded = []
        for trace in synthesize_fleet(2):
            path = directory / f"rank{trace.metadata['rank']}.json"
            trace.save(path)
            loaded.append(ExecutionTrace.load(path))
        return loaded

    def test_ranks_share_one_function_per_distinct_op(self, fleet):
        rank0, rank1 = (_reconstruct_all(trace) for trace in fleet)
        assert [op.node_id for op in rank0] == [op.node_id for op in rank1]
        for ours, theirs in zip(rank0, rank1):
            assert ours.function is theirs.function
            assert ours.ir_text is theirs.ir_text
        distinct_functions = {id(op.function) for op in rank0 + rank1}
        distinct_ir = {op.ir_text for op in rank0}
        assert len(distinct_functions) < len(rank0)
        assert len(distinct_functions) >= len(distinct_ir)

    def test_function_name_is_content_derived(self, fleet):
        for op in _reconstruct_all(fleet[0]):
            digest = hashlib.sha1(op.ir_text.encode("utf-8")).hexdigest()[:12]
            assert op.function.name.endswith(f"_{digest}")

    @pytest.mark.parametrize(
        "left, right",
        [(1, True), (1, 1.0), (True, 1.0), (1, 2)],
        ids=["int-vs-bool", "int-vs-float", "bool-vs-float", "constant-value"],
    )
    def test_distinct_constants_do_not_share(self, fleet, left, right):
        node = fleet[0].find_by_name("aten::cat")[0]
        first = OperatorReconstructor().reconstruct(_with_constant(node, left))
        second = OperatorReconstructor().reconstruct(_with_constant(node, right))
        assert first.function is not second.function
        assert first.ir_text != second.ir_text
        assert f"[value={right!r}]" in second.ir_text

    def test_unregistered_op_raises_on_a_cache_hit(self, fleet):
        node = fleet[0].find_by_name("aten::mm")[0]
        OperatorReconstructor().reconstruct(node)
        assert reconstruction.cache_size() > 0
        with pytest.raises(ReconstructionError, match="not registered"):
            OperatorReconstructor(OperatorRegistry()).reconstruct(node)

    def test_failures_are_not_cached(self):
        reconstruction.clear_cache()
        node = ETNode(name="aten::not_an_op", id=2, parent=1,
                      op_schema="aten::not_an_op(Tensor x) -> Tensor",
                      inputs=[[1, 0, 0, 4, 4, "cuda:0"]], input_types=["Tensor(float32)"])
        for _ in range(2):
            with pytest.raises(ReconstructionError, match="not registered"):
                OperatorReconstructor().reconstruct(node)
        assert reconstruction.cache_size() == 0

    def test_remapped_comms_key_on_the_remapped_group(self):
        four, two = synthesize_fleet(4)[0], synthesize_fleet(2)[0]

        def comms(trace, **config):
            context = (
                api.replay(trace).configure(world_size=1, **config).run_context()
            )
            return [
                context.reconstructed[entry.node.id]
                for entry in context.selection.supported_entries()
                if entry.category == "comms"
            ]

        recorded, remapped, native = comms(four), comms(four, remap_world_size=2), comms(two)
        assert remapped and len(recorded) == len(remapped) == len(native)
        for recorded_op, remapped_op, native_op in zip(recorded, remapped, native):
            assert "'ranks': [0, 1, 2, 3]" in recorded_op.ir_text
            assert "'ranks': [0, 1]" in remapped_op.ir_text
            assert remapped_op.function is not recorded_op.function
            # Folded onto two ranks, the group is exactly the one a native
            # two-rank trace records, so the functions are shared.
            assert remapped_op.function is native_op.function

    @pytest.mark.parametrize("round_", range(5))
    def test_concurrent_misses_share_one_function(self, fleet, round_):
        """Threads racing on a cold cache all end up holding the entry
        that won, and no entry is lost or duplicated."""
        nodes = [entry.node for entry in OperatorSelector().select(fleet[0]).supported_entries()]
        results = []
        errors = []

        def work():
            try:
                results.append([OperatorReconstructor().reconstruct(node).function for node in nodes])
            except Exception as error:  # surfaced by the assert below
                errors.append(error)

        reconstruction.clear_cache()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(16)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors and len(results) == len(threads)
        assert all(
            all(mine is theirs for mine, theirs in zip(functions, results[0]))
            for functions in results
        )
        assert reconstruction.cache_size() == len({id(function) for function in results[0]})

    def test_replays_stay_correct_past_the_bound(self, fleet, monkeypatch):
        def summary():
            return api.replay(fleet[0]).iterations(2).summarize().to_dict()

        reconstruction.clear_cache()
        expected = summary()
        monkeypatch.setattr(reconstruction, "_CACHE_MAX_ENTRIES", 4)
        reconstruction.clear_cache()
        assert summary() == expected
        assert reconstruction.cache_size() == 4
        assert summary() == expected


class TestSharedReconstructionEquivalence:
    """Results are byte-identical whether reconstruction starts cold (cache
    cleared) or warm (every operator already compiled)."""

    #: ``ClusterReport.to_dict()`` sha256 of the 8-rank DDP-RM fleet, as
    #: replayed when every rank compiled its own operators.
    FLEET_SHA256 = "97bd0ab9c50e53b9a00fb1e42472f486c861e5bd33cb816cc187ef365da16040"

    def test_fleet_report_cold_and_warm(self):
        fleet = synthesize_fleet(8)

        def sha():
            report = api.replay_cluster(fleet).world(8).iterations(1, warmup=0).run()
            return _canonical_sha(report.to_dict())

        reconstruction.clear_cache()
        cold = sha()
        assert cold == sha() == self.FLEET_SHA256

    @pytest.mark.parametrize("workload", ["param_linear", "rm", "ddp_rm"])
    def test_single_rank_summary_cold_and_warm(self, workload):
        if workload == "param_linear":
            trace = capture_workload(
                ParamLinearWorkload(
                    ParamLinearConfig(batch_size=8, num_layers=2, hidden_size=32, input_size=32)
                ),
                warmup_iterations=0,
            ).execution_trace
        elif workload == "rm":
            trace = capture_workload(make_small_rm(), warmup_iterations=0).execution_trace
        else:
            trace = DistributedRunner(
                lambda rank, world: make_small_rm(rank=rank, world_size=world), world_size=2
            ).run_rank(0).execution_trace

        def summary():
            return json.dumps(
                api.replay(trace).iterations(2).summarize().to_dict(), sort_keys=True
            )

        reconstruction.clear_cache()
        cold = summary()
        assert cold == summary()

    def test_concurrent_threads_equal_serial(self):
        """The daemon's worker threads replay concurrently through the one
        reconstruction cache: two threads that miss it on the same trace at
        once must produce the serial replay's summaries."""
        traces = [
            capture_workload(
                ParamLinearWorkload(
                    ParamLinearConfig(batch_size=8, num_layers=layers, hidden_size=32, input_size=32)
                ),
                warmup_iterations=0,
            ).execution_trace
            for layers in (2, 3)
        ]
        # Thread 0 replays every trace on A100 while thread 1 replays the
        # same trace on V100, so both miss the cache for it together.
        pairs = [
            (trace, ReplayConfig(device=device))
            for trace in traces
            for device in ("A100", "V100")
        ]

        def summary(trace, config):
            result = run_replay(trace, config=config)
            return json.dumps(result.summarize().to_dict(), sort_keys=True)

        threaded = [None] * len(pairs)

        def work(offset):
            for index in range(offset, len(pairs), 2):
                threaded[index] = summary(*pairs[index])

        reconstruction.clear_cache()
        threads = [threading.Thread(target=work, args=(offset,)) for offset in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        reconstruction.clear_cache()
        serial = [summary(*pair) for pair in pairs]
        assert threaded == serial


class TestReconstructionCacheBypassRule:
    """``scripts/check_deprecated_usage.py`` keeps IR building and parsing
    inside ``core/reconstruction.py`` so nothing bypasses the cache."""

    @staticmethod
    def _find_offenders(root: Path) -> dict:
        path = Path(__file__).resolve().parents[1] / "scripts" / "check_deprecated_usage.py"
        spec = importlib.util.spec_from_file_location("check_deprecated_usage", path)
        module = importlib.util.module_from_spec(spec)
        # Registered before exec: dataclass annotation resolution looks the
        # module up in sys.modules.
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
        return module.find_offenders(root)

    @staticmethod
    def _write(root: Path, relative: str, text: str) -> None:
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)

    def test_repo_is_clean(self):
        offenders = self._find_offenders(Path(__file__).resolve().parents[1])
        assert "reconstruction-cache-bypass" not in offenders

    def test_flags_calls_outside_reconstruction(self, tmp_path):
        self._write(tmp_path, "src/repro/cluster/fast.py", "graph = parse_ir(build_ir(name, specs))\n")
        self._write(tmp_path, "src/repro/core/vectorize.py", "text = jit.build_ir(name, specs)\n")
        offenders = self._find_offenders(tmp_path)
        assert len(offenders["reconstruction-cache-bypass"]) == 2

    def test_reconstruction_definitions_and_prose_pass(self, tmp_path):
        self._write(tmp_path, "src/repro/core/reconstruction.py", "graph = parse_ir(build_ir(n, s))\n")
        self._write(
            tmp_path,
            "src/repro/torchsim/jit.py",
            'def build_ir(op_name, arg_specs):\n    """Read back by :func:`parse_ir`."""\n',
        )
        assert "reconstruction-cache-bypass" not in self._find_offenders(tmp_path)


class TestExecuteLoopForkRule:
    """``scripts/check_deprecated_usage.py`` keeps reconstructed-op calls in
    the one execute loop and the ``RankBlocked`` catch in its retry helper."""

    _find_offenders = staticmethod(TestReconstructionCacheBypassRule._find_offenders)
    _write = staticmethod(TestReconstructionCacheBypassRule._write)

    def test_repo_is_clean(self):
        offenders = self._find_offenders(Path(__file__).resolve().parents[1])
        assert "execute-loop-fork" not in offenders

    def test_flags_op_calls_and_blocked_catches_outside_the_loop(self, tmp_path):
        self._write(
            tmp_path,
            "src/repro/cluster/scheduler.py",
            "result = reconstructed.function(runtime, *tensors, stream=stream)\n"
            "try:\n    call()\nexcept RankBlocked as blocked:\n    pass\n",
        )
        self._write(
            tmp_path,
            "src/repro/core/pipeline.py",
            "try:\n    call()\nexcept (ValueError, RankBlocked):\n    pass\n",
        )
        offenders = self._find_offenders(tmp_path)
        assert len(offenders["execute-loop-fork"]) == 3

    def test_loop_modules_and_retry_helper_pass(self, tmp_path):
        self._write(tmp_path, "src/repro/core/pipeline.py", "out = op.function(runtime)\n")
        self._write(tmp_path, "src/repro/core/vectorize.py", "out = op.function(runtime)\n")
        self._write(
            tmp_path,
            "src/repro/torchsim/distributed.py",
            "try:\n    call()\nexcept RankBlocked as signal:\n    blocked = signal\n",
        )
        self._write(
            tmp_path,
            "src/repro/cluster/scheduler.py",
            "blocked = cursor.advance()  # RankBlocked, not caught here\n",
        )
        assert "execute-loop-fork" not in self._find_offenders(tmp_path)


class TestRankDependentOpRule:
    """``scripts/check_deprecated_usage.py`` keeps rank and clock reads and
    explicit kernel durations out of every operator but the (never
    vectorized) comms ops, which is what makes sharing captured programs
    across a co-replay's ranks and across power caps sound."""

    _find_offenders = staticmethod(TestReconstructionCacheBypassRule._find_offenders)
    _write = staticmethod(TestReconstructionCacheBypassRule._write)

    def test_repo_is_clean(self):
        offenders = self._find_offenders(Path(__file__).resolve().parents[1])
        assert "rank-dependent-op" not in offenders

    def test_flags_rank_reads_in_compute_ops_and_nn(self, tmp_path):
        self._write(
            tmp_path,
            "src/repro/torchsim/ops/custom.py",
            "skew = 0.5 * ctx.runtime.rank\n",
        )
        self._write(tmp_path, "src/repro/torchsim/nn.py", "shard = runtime.dist.rank % 2\n")
        offenders = self._find_offenders(tmp_path)
        assert len(offenders["rank-dependent-op"]) == 2

    def test_flags_clock_reads_and_explicit_durations(self, tmp_path):
        self._write(
            tmp_path,
            "src/repro/torchsim/ops/aten.py",
            "t = ctx.runtime.cost_model.duration_us(desc)\n"
            "slow = ctx.runtime.power_model.power_limit_w\n"
            "ctx.launch(desc, duration_us=3.0)\n",
        )
        self._write(tmp_path, "src/repro/torchsim/nn.py", "scale = runtime.clock_scale\n")
        offenders = self._find_offenders(tmp_path)
        assert len(offenders["rank-dependent-op"]) == 4

    def test_comms_ops_and_other_modules_pass(self, tmp_path):
        self._write(
            tmp_path,
            "src/repro/torchsim/ops/comms.py",
            "rank = dist.rank\nctx.launch(desc, duration_us=duration)\n",
        )
        self._write(tmp_path, "src/repro/torchsim/ops/aten.py", "group = pg.ranks\n")
        self._write(
            tmp_path,
            "src/repro/torchsim/runtime.py",
            "pid = self.rank\nt = self.cost_model.duration_us(desc)\n",
        )
        assert "rank-dependent-op" not in self._find_offenders(tmp_path)


class TestIndexValuesBypassRule:
    """``scripts/check_deprecated_usage.py`` keeps index-value generation in
    ``core/tensors.py``, so every replay takes its payloads from the one
    bounded, read-only table (``index_values``)."""

    _find_offenders = staticmethod(TestReconstructionCacheBypassRule._find_offenders)
    _write = staticmethod(TestReconstructionCacheBypassRule._write)

    def test_repo_is_clean(self):
        offenders = self._find_offenders(Path(__file__).resolve().parents[1])
        assert "index-values-bypass" not in offenders

    def test_flags_generate_calls_outside_tensors(self, tmp_path):
        self._write(
            tmp_path,
            "src/repro/core/pipeline.py",
            "tensor.data = config.embedding_config.generate(numel)\n",
        )
        self._write(
            tmp_path,
            "src/repro/cluster/plan.py",
            "values = EmbeddingValueConfig(seed=1).generate(64).reshape(8, 8)\n",
        )
        offenders = self._find_offenders(tmp_path)
        assert len(offenders["index-values-bypass"]) == 2

    def test_tensors_module_and_other_trees_pass(self, tmp_path):
        self._write(
            tmp_path,
            "src/repro/core/tensors.py",
            "array = config.generate(count).reshape(shape)\n",
        )
        self._write(tmp_path, "src/repro/core/generator.py", "def generate(self, out):\n    pass\n")
        self._write(tmp_path, "benchmarks/test_x.py", "values = config.generate(8)\n")
        assert "index-values-bypass" not in self._find_offenders(tmp_path)


class TestTensorManager:
    def test_classification_intermediate_vs_external(self, captured_runtime_pieces):
        trace = captured_runtime_pieces["trace"]
        selection = OperatorSelector().select(trace)
        classification = classify_tensors(selection.entries)
        assert classification.external, "parameters and inputs must be external"
        assert classification.intermediate, "activations must be intermediate"
        overlap = set(classification.external) & set(classification.intermediate)
        assert not overlap

    def test_external_tensor_materialized_with_recorded_shape(self):
        manager = TensorManager()
        tensor = Tensor.empty((16, 32), dtype=DType.FLOAT16)
        value, shape, type_str = (list(tensor.id), list(tensor.shape), tensor.type_string())
        replayed = manager.get_input(value, shape, type_str)
        assert replayed.shape == (16, 32)
        assert replayed.dtype == DType.FLOAT16

    def test_same_reference_returns_same_tensor(self):
        manager = TensorManager()
        tensor = Tensor.empty((8,))
        ref = list(tensor.id)
        first = manager.get_input(ref, [8], "Tensor(float32)")
        second = manager.get_input(ref, [8], "Tensor(float32)")
        assert first is second

    def test_register_outputs_feeds_downstream_ops(self):
        manager = TensorManager()
        produced = Tensor.empty((4, 4))
        node = ETNode(
            name="aten::mm", id=2, parent=1, op_schema="aten::mm(Tensor a, Tensor b) -> Tensor",
            outputs=[list(produced.id)], output_shapes=[[4, 4]], output_types=["Tensor(float32)"],
        )
        replayed_output = Tensor.empty((4, 4))
        manager.register_outputs(node, replayed_output)
        fetched = manager.get_input(list(produced.id), [4, 4], "Tensor(float32)")
        assert fetched is replayed_output

    def test_tensor_list_input(self):
        manager = TensorManager()
        tensors = [Tensor.empty((2,)), Tensor.empty((3,))]
        value = [list(t.id) for t in tensors]
        shapes = [[2], [3]]
        type_str = "GenericList[Tensor(float32),Tensor(float32)]"
        result = manager.get_input(value, shapes, type_str)
        assert isinstance(result, list)
        assert [t.shape for t in result] == [(2,), (3,)]

    def test_non_tensor_passthrough(self):
        manager = TensorManager()
        assert manager.get_input(5, [], "Int") == 5
        assert manager.get_input("sum", [], "String") == "sum"

    def test_reset_intermediates_keeps_external(self, captured_runtime_pieces):
        trace = captured_runtime_pieces["trace"]
        selection = OperatorSelector().select(trace)
        manager = TensorManager(classification=classify_tensors(selection.entries))
        for entry in selection.entries:
            manager.gather_inputs(entry.node)
        before = manager.registered_count()
        manager.reset_intermediates()
        after = manager.registered_count()
        assert after <= before
        assert after >= len(set(manager.classification.external)) - before  # externals retained

    def test_embedding_config_generates_indices_payload(self):
        manager = TensorManager(embedding_config=EmbeddingValueConfig(table_size=1000, seed=3))
        indices = Tensor.empty((256,), dtype=DType.INT64)
        replayed = manager.get_input(list(indices.id), [256], "Tensor(int64)")
        assert replayed.data is not None
        assert replayed.data.max() < 1000
        assert replayed.data.min() >= 0

    def test_without_embedding_config_indices_have_no_payload(self):
        manager = TensorManager(embedding_config=None)
        indices = Tensor.empty((256,), dtype=DType.INT64)
        replayed = manager.get_input(list(indices.id), [256], "Tensor(int64)")
        assert replayed.data is None


class TestEmbeddingValueConfig:
    def test_uniform_distribution(self):
        config = EmbeddingValueConfig(table_size=50, distribution="uniform", seed=1)
        values = config.generate(1000)
        assert values.min() >= 0 and values.max() < 50

    def test_zipf_is_skewed(self):
        config = EmbeddingValueConfig(table_size=10_000, distribution="zipf", seed=1)
        uniform = EmbeddingValueConfig(table_size=10_000, distribution="uniform", seed=1)
        zipf_hot_mass = (config.generate(10_000) < 10).mean()
        uniform_hot_mass = (uniform.generate(10_000) < 10).mean()
        # Zipf concentrates far more mass on the hottest rows than uniform.
        assert zipf_hot_mass > 10 * max(uniform_hot_mass, 1e-3)

    def test_deterministic_for_fixed_seed(self):
        config = EmbeddingValueConfig(seed=9)
        assert (config.generate(100) == config.generate(100)).all()

    def test_unknown_distribution_rejected(self):
        with pytest.raises(ValueError):
            EmbeddingValueConfig(distribution="gaussian").generate(10)
