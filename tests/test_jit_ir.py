"""Tests for the TorchScript-style IR builder/parser/compiler."""

import pytest

from repro.torchsim import Runtime, Tensor
from repro.torchsim.jit import CompiledFunction, build_ir, parse_ir


class TestBuildIR:
    def test_tensor_args_become_graph_inputs(self):
        text = build_ir("aten::add", [("self", "Tensor(float32)", None), ("other", "Tensor(float32)", None), ("alpha", "Int", 1)])
        assert text.startswith("graph(")
        assert "%self.1 : Tensor" in text
        assert "prim::Constant[value=1]()" in text
        assert "aten::add(" in text
        assert text.rstrip().endswith("return (%out)")

    def test_tensor_list_normalised_to_tensor_array(self):
        text = build_ir("aten::cat", [("tensors", "GenericList[Tensor(float32),Tensor(float32)]", None), ("dim", "Int", 1)])
        assert "Tensor[]" in text

    def test_no_tensor_args(self):
        text = build_ir("c10d::barrier", [("async_op", "Bool", False)])
        assert text.startswith("graph()")

    def test_string_and_dict_constants(self):
        text = build_ir(
            "c10d::all_reduce",
            [
                ("tensors", "GenericList[Tensor(float32)]", None),
                ("reduce_op", "String", "sum"),
                ("pg", "Dict", {"pg_id": 0, "ranks": [0, 1], "backend": "nccl"}),
                ("async_op", "Bool", True),
            ],
        )
        assert "'sum'" in text
        assert "'ranks': [0, 1]" in text


class TestParseIR:
    def test_round_trip_simple_graph(self):
        text = build_ir("aten::add", [("self", "Tensor(float32)", None), ("other", "Tensor(float32)", None), ("alpha", "Int", 1)])
        graph = parse_ir(text)
        assert len(graph.inputs) == 2
        assert len(graph.constants) == 1
        assert graph.constants[0].value == 1
        assert graph.call.op_name == "aten::add"
        assert graph.returns == ["%out"]

    def test_operand_plan_orders_inputs_and_constants(self):
        text = build_ir("aten::dropout", [("input", "Tensor(float32)", None), ("p", "Double", 0.5), ("train", "Bool", True)])
        plan = parse_ir(text).operand_plan()
        assert plan[0] == ("input", 0)
        assert plan[1] == ("const", 0.5)
        assert plan[2] == ("const", True)

    def test_constant_types_parsed(self):
        text = build_ir("x::y", [("a", "Tensor(float32)", None), ("values", "GenericList[Int]", [1, 2, 3]), ("flag", "Bool", False), ("name", "String", "hi")])
        constants = parse_ir(text).constants
        assert [c.value for c in constants] == [[1, 2, 3], False, "hi"]

    def test_invalid_text_rejected(self):
        with pytest.raises(ValueError):
            parse_ir("not a graph")
        with pytest.raises(ValueError):
            parse_ir("graph(%x.1 : Tensor):\n  return (%x.1)")

    def test_paper_example_graph_parses(self):
        text = (
            "graph(%x.1 : Tensor,\n"
            "      %y.1 : Tensor):\n"
            "  %4 : int = prim::Constant[value=1]()\n"
            "  %5 : Tensor = aten::add(%x.1, %y.1, %4)\n"
            "  return (%5)"
        )
        graph = parse_ir(text)
        assert graph.call.op_name == "aten::add"
        assert graph.call.operands == ("%x.1", "%y.1", "%4")


class TestCompilationUnit:
    def test_compiled_function_dispatches_through_runtime(self):
        rt = Runtime("A100")
        text = build_ir("aten::mm", [("self", "Tensor(float32)", None), ("mat2", "Tensor(float32)", None)])
        function = CompiledFunction("mm_1", parse_ir(text))
        out = function(rt, Tensor.empty((8, 16)), Tensor.empty((16, 4)))
        assert out.shape == (8, 4)
        assert len(rt.gpu.launches) == 1

    def test_compiled_function_bakes_constants(self):
        rt = Runtime("A100")
        text = build_ir("aten::dropout", [("input", "Tensor(float32)", None), ("p", "Double", 0.5), ("train", "Bool", False)])
        function = CompiledFunction("dropout_1", parse_ir(text))
        function(rt, Tensor.empty((128,)))
        # train=False -> the dropout is a no-op and launches nothing.
        assert rt.gpu.launches == []

    def test_wrong_arity_rejected(self):
        text = build_ir("aten::relu", [("self", "Tensor(float32)", None)])
        function = CompiledFunction("relu_1", parse_ir(text))
        with pytest.raises(TypeError):
            function(Runtime("A100"))
