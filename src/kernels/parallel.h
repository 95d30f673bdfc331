// When the CPU kernels split their rows across OpenMP threads.
#pragma once

namespace turbo::kernels {

// Element-wise and per-row kernels (add_bias, add_bias_gelu, layernorm,
// softmax_rows, ...) open an OpenMP team only when they touch at least this
// many floats, with `#pragma omp parallel for if (elems >= ...)`. Below it,
// waking the team costs more than the loop saves. Rows are independent and each row's
// arithmetic is the same on either side, so results are bit-identical
// whichever way a call goes.
//
// The two thresholds come from sweeps of every gated kernel at 1k-256k
// floats, 4 threads against 1, on a 4-vCPU 2.0 GHz Xeon VM. A team costs
// ~3 us to start when its threads still spin (libgomp's default) and ~20 us
// when they sleep (OMP_WAIT_POLICY=passive), so a loop pays off once it
// runs ~4-25 us serially. Per float that is:
//
// Streaming loops (add_bias, add_residual, the head transposes): an add or
// a copy, 0.2-0.8 ns a float. At 2^15 floats 4 threads beat 1 under the
// spinning default (add_bias 6.2 vs 7.7 us, split_add_bias_transpose 11 vs
// 22 us) and lose ~15 us when sleeping; at 2^14 they gain nothing.
//
// The exp loops (add_bias_gelu, softmax_rows, attention_softmax) are in
// this class too: on the one vector exp (AVX-512) they cost 0.4-0.7 ns a
// float. At 2^15 floats 4 threads beat 1 spinning (softmax_rows 9.7 vs
// 18.4 us, attention_softmax 10.3 vs 22.9 us) and lose 3-10 us sleeping;
// at 2^11-2^13 they gain at most 1.5 us spinning and lose 10-18 us
// sleeping.
constexpr long kMinParallelElems = 1L << 15;

// Loops with a per-row mean and variance per float (layernorm,
// add_bias_layernorm): 1.4-2 ns a float. At 2^11 floats 4 threads tie with
// 1 under the spinning default (layernorm 3.5 vs 3.4 us) and beat it from
// 2^12 (4.4 vs 6.3 us); sleeping, they lose 3-16 us up to 2^14. Below it
// the kernels of a small decode step (a few rows of hidden 64) run
// serially.
constexpr long kMinParallelElemsHeavy = 1L << 11;

}  // namespace turbo::kernels
