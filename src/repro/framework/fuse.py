"""The LSTM pattern matcher behind the plan compiler's fusion pass.

The fusion ablation (``benchmarks/bench_ablation_fusion.py``) shows that
replacing the composed ~16-primitive LSTM step with the fused
``LSTMBlockCell`` op removes most of a recurrent graph's dispatch cost.
This module recognizes the exact operator tree
:class:`repro.framework.rnn.LSTMCell` emits —

    gates = BiasAdd(MatMul(Concat([x, h]), kernel), bias)
    i, j, f, o = Slice(gates) x4
    new_c = c * sigmoid(f + forget_bias) + sigmoid(i) * tanh(j)
    new_h = tanh(new_c) * sigmoid(o)

— and :func:`repro.framework.compiler.compile_plan` replaces each match
with a single ``LSTMBlockCell`` step (``PlanOptions.fuse_lstm``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import Graph, Operation, Tensor
from .ops.state_ops import Const


@dataclass
class _LSTMMatch:
    """One recognized composed-LSTM step."""

    x: Tensor
    c: Tensor
    h: Tensor
    kernel: Tensor
    bias: Tensor
    forget_bias: float
    new_c: Tensor
    new_h: Tensor
    interior: set[int]  # ids of ops to be replaced
    anchor: Operation   # the new_c Add; the fused op is emitted here
    #: interior tensors that outside consumers *may* read without
    #: blocking fusion, because each is exactly recomputable from the
    #: fused op's outputs: the four activated gates ("i", "j", "f",
    #: "o") are H-wide column slices of the cached gates output,
    #: "tanh_c" is Tanh of the new_c output, and "joined" is
    #: Concat(x, h) over the match's own inputs. A training graph's
    #: backward pass reads precisely these six, which is why fusion
    #: historically never fired once gradients were taken.
    recoverable: dict = field(default_factory=dict)


def _op(tensor: Tensor) -> Operation:
    return tensor.op


def _is_type(tensor: Tensor, type_name: str) -> bool:
    return tensor.op.type_name == type_name


def _match_gate_slice(tensor: Tensor, hidden: int, index: int,
                      gates: Tensor) -> bool:
    """Is ``tensor`` the index-th H-wide, full-batch slice of ``gates``?"""
    if not _is_type(tensor, "Slice"):
        return False
    op = tensor.op
    if op.inputs[0] is not gates:
        return False
    return (tuple(op.attrs["begin"]) == (0, index * hidden)
            and tuple(op.attrs["size"]) == (gates.shape[0], hidden))


def _match_cell(new_h_op: Operation) -> _LSTMMatch | None:
    """Try to recognize one LSTM step anchored at its new_h multiply."""
    if new_h_op.type_name != "Mul":
        return None
    operands = list(new_h_op.inputs)
    tanh_side = next((t for t in operands if _is_type(t, "Tanh")), None)
    sigmoid_o = next((t for t in operands if _is_type(t, "Sigmoid")), None)
    if tanh_side is None or sigmoid_o is None:
        return None
    new_c = _op(tanh_side).inputs[0]
    if not _is_type(new_c, "Add"):
        return None
    add_op = new_c.op
    muls = list(add_op.inputs)
    if not all(_is_type(t, "Mul") for t in muls):
        return None

    # One multiply is c * sigmoid(f + bias); the other sigmoid(i)*tanh(j).
    def decompose_forget(mul_tensor):
        a, b = mul_tensor.op.inputs
        for cell_t, gate_t in ((a, b), (b, a)):
            if not _is_type(gate_t, "Sigmoid"):
                continue
            pre = _op(gate_t).inputs[0]
            if not _is_type(pre, "Add"):
                continue
            left, right = pre.op.inputs
            for slice_t, const_t in ((left, right), (right, left)):
                if isinstance(const_t.op, Const) and \
                        _is_type(slice_t, "Slice"):
                    value = const_t.op.attrs["value"]
                    if value.ndim == 0:
                        return cell_t, slice_t, float(value), gate_t, \
                            {id(gate_t.op), id(pre.op), id(const_t.op)}
        return None

    def decompose_input(mul_tensor):
        a, b = mul_tensor.op.inputs
        for sig_t, tanh_t in ((a, b), (b, a)):
            if _is_type(sig_t, "Sigmoid") and _is_type(tanh_t, "Tanh"):
                i_slice = _op(sig_t).inputs[0]
                j_slice = _op(tanh_t).inputs[0]
                if _is_type(i_slice, "Slice") and _is_type(j_slice,
                                                           "Slice"):
                    return i_slice, j_slice, sig_t, tanh_t, \
                        {id(sig_t.op), id(tanh_t.op)}
        return None

    for forget_mul, input_mul in ((muls[0], muls[1]), (muls[1], muls[0])):
        forget = decompose_forget(forget_mul)
        gate_pair = decompose_input(input_mul)
        if forget is None or gate_pair is None:
            continue
        cell_t, f_slice, forget_bias, f_sigmoid, forget_ops = forget
        i_slice, j_slice, i_sigmoid, j_tanh, input_ops = gate_pair
        o_slice = _op(sigmoid_o).inputs[0]
        if not _is_type(o_slice, "Slice"):
            continue

        gates = f_slice.op.inputs[0]
        hidden = cell_t.shape[1]
        if gates.shape[1] != 4 * hidden:
            continue
        if not (_match_gate_slice(i_slice, hidden, 0, gates)
                and _match_gate_slice(j_slice, hidden, 1, gates)
                and _match_gate_slice(f_slice, hidden, 2, gates)
                and _match_gate_slice(o_slice, hidden, 3, gates)):
            continue
        if not _is_type(gates, "BiasAdd"):
            continue
        matmul_t, bias_t = gates.op.inputs
        if not _is_type(matmul_t, "MatMul"):
            continue
        matmul_op = matmul_t.op
        if matmul_op.attrs["transpose_a"] or matmul_op.attrs["transpose_b"]:
            continue
        joined_t, kernel_t = matmul_op.inputs
        if not _is_type(joined_t, "Concat") or \
                joined_t.op.attrs["axis"] != 1:
            continue
        concat_inputs = joined_t.op.inputs
        if len(concat_inputs) != 2:
            continue
        x_t, h_t = concat_inputs

        interior = {id(new_h_op), id(add_op), id(forget_mul.op),
                    id(input_mul.op), id(tanh_side.op), id(sigmoid_o.op),
                    id(i_slice.op), id(j_slice.op), id(f_slice.op),
                    id(o_slice.op), id(gates.op), id(matmul_op),
                    id(joined_t.op)}
        interior |= forget_ops | input_ops
        recoverable = {"i": i_sigmoid, "j": j_tanh, "f": f_sigmoid,
                       "o": sigmoid_o, "tanh_c": tanh_side,
                       "joined": joined_t}
        return _LSTMMatch(x=x_t, c=cell_t, h=h_t, kernel=kernel_t,
                          bias=bias_t, forget_bias=forget_bias,
                          new_c=new_c, new_h=new_h_op.outputs[0],
                          interior=interior, anchor=add_op,
                          recoverable=recoverable)
    return None


def _externally_clean(match: _LSTMMatch, graph: Graph,
                      fetch_names: set[str],
                      op_by_id: dict[int, Operation]) -> bool:
    """Every interior tensor (except new_c/new_h) stays inside the match.

    Only consumers inside the fetch subgraph (``op_by_id``) count, and
    consumers of the six recoverable interior tensors (see
    :class:`_LSTMMatch`) are tolerated: the compiler re-materializes
    those values from the fused op's outputs. A *fetched* interior tensor
    always vetoes the match, even a recoverable one: fetches are the
    user-visible contract, and the structural tier must observe the
    identical tensor object.
    """
    boundary = {match.new_c.name, match.new_h.name}
    recoverable_names = {t.name for t in match.recoverable.values()}
    for op_id in match.interior:
        for tensor in op_by_id[op_id].outputs:
            if tensor.name in boundary:
                continue
            if tensor.name in fetch_names:
                return False
            if tensor.name in recoverable_names:
                continue
            for consumer in graph.consumers(tensor):
                if id(consumer) in op_by_id and \
                        id(consumer) not in match.interior:
                    return False
    return True


def find_lstm_matches(graph: Graph, sub_ops: list[Operation],
                      fetches: list[Tensor]) -> list[_LSTMMatch]:
    """Recognize every fusible composed-LSTM step in a fetch subgraph.

    ``sub_ops`` is the pruned subgraph of ``fetches`` in topological
    order. Returns structurally valid, externally clean, mutually
    disjoint matches in that order; the compiler's fusion pass then
    revalidates each against its own rewritten view of the subgraph and
    emits recovery ops for escaping recoverable values.
    """
    op_by_id = {id(op): op for op in sub_ops}
    fetch_names = {t.name for t in fetches}
    matches: list[_LSTMMatch] = []
    claimed: set[int] = set()
    for op in sub_ops:
        match = _match_cell(op)
        if match is None:
            continue
        if match.interior & claimed:
            continue
        if not _externally_clean(match, graph, fetch_names, op_by_id):
            continue
        matches.append(match)
        claimed |= match.interior
    return matches
