#ifndef DEEPST_NN_INFER_CLONES_H_
#define DEEPST_NN_INFER_CLONES_H_

// Runtime ISA dispatch for the inference kernels (forward.cc, gates.cc):
// each DEEPST_INFER_CLONES function is compiled three times and an ifunc
// resolver picks the widest clone the CPU supports, testing avx512f before
// x86-64-v3 (AVX2 + FMA + BMI2). Disabled under ASan/TSan (ifunc resolvers
// run before their runtimes initialize), which then run the default clone's
// code, and off x86-64 ELF targets.
//
// What the dispatch may change: forward.cc is compiled with GCC's default
// -ffp-contract=fast, so the avx512f and x86-64-v3 clones fuse its GEMV
// multiply-adds and the default clone does not; the GEMV's last bits depend
// on which clone runs. A machine always runs the same clone, so results are
// bitwise identical across thread counts, batch compositions, memo on/off
// and blocking on/off. gates.cc is compiled with -ffp-contract=off and spells
// its fused multiply-adds out, so its bits are the same in every clone.
#if defined(__GNUC__) && defined(__x86_64__) && defined(__ELF__) && \
    !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
#define DEEPST_INFER_CLONES \
  __attribute__((target_clones("avx512f", "arch=x86-64-v3", "default")))
#else
#define DEEPST_INFER_CLONES
#endif

// Per-element helpers MUST be inlined into each target_clones clone: an
// out-of-line copy would be compiled for the default ISA (and with its own
// FP-contraction choices), so two call sites of the same helper could
// produce results differing in the last bit. Forcing the inline keeps every
// clone's arithmetic self-contained and reproducible.
#define DEEPST_FORCE_INLINE inline __attribute__((always_inline))

#endif  // DEEPST_NN_INFER_CLONES_H_
