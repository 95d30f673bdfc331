// When the CPU kernels split their rows across OpenMP threads.
#pragma once

namespace turbo::kernels {

// Element-wise and per-row kernels (add_bias, gelu, layernorm, softmax_rows,
// ...) open an OpenMP team only when they touch at least this many floats,
// with `#pragma omp parallel for if (elems >= ...)`. Below it, waking the
// team costs more than the loop saves. Rows are independent and each row's
// arithmetic is the same on either side, so results are bit-identical
// whichever way a call goes.
//
// The two thresholds come from a sweep of every gated kernel at 1k-256k
// floats, 4 threads against 1, on a 4-vCPU 2.0 GHz Xeon VM. A team costs
// ~3 us to start when its threads still spin (libgomp's default) and ~20 us
// when they sleep (OMP_WAIT_POLICY=passive), so a loop pays off once it
// runs ~4-25 us serially. Per float that is:
//
// Streaming loops (add_bias, add_residual, the head transposes): an add or
// a copy, 0.2-0.8 ns a float. At 2^15 floats 4 threads beat 1 under the
// spinning default (add_bias 6.2 vs 7.7 us, split_add_bias_transpose 11 vs
// 22 us) and lose ~15 us when sleeping; at 2^14 they gain nothing.
constexpr long kMinParallelElems = 1L << 15;

// Loops with an exp, erf/tanh or per-row mean and variance per float
// (softmax_rows, attention_softmax, gelu, add_bias_gelu, layernorm,
// add_bias_layernorm): 2-20 ns a float. At 2^11 floats 4 threads beat 1
// under the spinning default (gelu 16 vs 43 us, softmax_rows 8.6 vs 19 us,
// layernorm 3.7 vs 5.3 us); sleeping, softmax and layernorm lose 5-16 us.
// Below it the kernels of a small decode step (a few rows of hidden 64)
// run serially.
constexpr long kMinParallelElemsHeavy = 1L << 11;

}  // namespace turbo::kernels
