//! The hipify-on-the-fly workflow (Section 3.1) end to end: one CUDA
//! source tree, compile-time translation, "Not Supported" diagnostics,
//! custom-kernel fallbacks, and per-source rebuilds.
//!
//! Run: `cargo run --release --example hipify_portability`

use fftmatvec::portability::kernels_cuda;
use fftmatvec::portability::{GpuVendor, HipifyPipeline};

fn main() {
    // The application's maintained sources are pure CUDA.
    let mut pipeline = HipifyPipeline::fftmatvec_app();
    println!("maintained CUDA sources: {:?}", pipeline.source_names());
    println!();

    // NVIDIA build: pass-through, exactly as the paper's CMake toggle.
    let cuda = pipeline.build_all(GpuVendor::Cuda).unwrap();
    println!(
        "CUDA build ({}) — {} units, 0 rewrites (source of truth)",
        GpuVendor::Cuda.compiler(),
        cuda.len()
    );

    // AMD build: hipify on the fly.
    let hip = pipeline.build_all(GpuVendor::Hip).unwrap();
    println!("HIP build ({}):", GpuVendor::Hip.compiler());
    for a in &hip {
        println!("  {:<22} {} rewrites", a.name, a.replacements);
    }
    println!();

    // The cuTENSOR gap: without the registered fallback the HIP build
    // fails with the paper's "Not Supported" error.
    let mut bare = HipifyPipeline::new();
    bare.add_source("complex_permute.cu", kernels_cuda::COMPLEX_PERMUTE);
    match bare.build_one("complex_permute.cu", GpuVendor::Hip) {
        Err(e) => println!("without fallback: {e}"),
        Ok(_) => unreachable!("cuTENSOR permutation must not translate"),
    }
    bare.register_fallback(
        "cutensorPermutation",
        "permute_setup_tensor_custom",
        kernels_cuda::COMPLEX_PERMUTE_FALLBACK,
    );
    let fixed = bare.build_one("complex_permute.cu", GpuVendor::Hip).unwrap();
    println!("with fallback: builds, custom kernel spliced ({} rewrites)", fixed.replacements);
    println!();

    // Editing a CUDA source re-triggers hipification of just that unit.
    let cached = pipeline.build_one("pad_kernel.cu", GpuVendor::Hip).unwrap();
    println!("unmodified pad_kernel.cu: rebuilt = {}", cached.rebuilt);
    pipeline.add_source("pad_kernel.cu", &kernels_cuda::PAD_KERNEL.replace("256", "512"));
    let rebuilt = pipeline.build_one("pad_kernel.cu", GpuVendor::Hip).unwrap();
    println!("after editing the CUDA source: rebuilt = {}", rebuilt.rebuilt);
}
