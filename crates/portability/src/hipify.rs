//! The CUDA→HIP source translator (a `hipify-perl` equivalent).
//!
//! `hipify-perl` is "essentially an advanced find-and-replace tool"
//! (Section 3.1); this implementation is the same idea made precise: an
//! identifier-aware scanner (no substring accidents — `cudaMalloc` maps,
//! `my_cudaMalloc_wrapper` does not), an ordered mapping table covering
//! the libraries FFTMatvec uses, kernel-launch syntax rewriting
//! (`k<<<g,b>>>(…)` → `hipLaunchKernelGGL(k, g, b, 0, 0, …)`), and
//! include-path rewrites. CUDA identifiers with no HIP counterpart are
//! reported as [`UnsupportedApi`] — the paper's "Not Supported" error.

use std::collections::HashMap;

/// One unresolved CUDA API occurrence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnsupportedApi {
    /// The CUDA identifier with no HIP mapping.
    pub name: String,
    /// 1-based source line.
    pub line: usize,
}

/// Result of translating one source file.
#[derive(Clone, Debug)]
pub struct HipifyResult {
    /// The HIP source.
    pub source: String,
    /// Number of identifier/launch/include rewrites performed.
    pub replacements: usize,
    /// CUDA APIs left untranslated (empty for a clean conversion).
    pub unsupported: Vec<UnsupportedApi>,
}

impl HipifyResult {
    /// Did everything translate?
    pub fn is_clean(&self) -> bool {
        self.unsupported.is_empty()
    }
}

/// Identifier-level CUDA→HIP mappings (the `hipify-perl` table, reduced to
/// the APIs the FFTMatvec sources use). NCCL symbols are *kept* — RCCL
/// implements the NCCL API — only the header moves.
pub const API_MAPPINGS: &[(&str, &str)] = &[
    // --- CUDA runtime ---
    ("cudaError_t", "hipError_t"),
    ("cudaSuccess", "hipSuccess"),
    ("cudaGetLastError", "hipGetLastError"),
    ("cudaGetErrorString", "hipGetErrorString"),
    ("cudaMalloc", "hipMalloc"),
    ("cudaFree", "hipFree"),
    ("cudaMallocHost", "hipHostMalloc"),
    ("cudaFreeHost", "hipHostFree"),
    ("cudaMemcpy", "hipMemcpy"),
    ("cudaMemcpyAsync", "hipMemcpyAsync"),
    ("cudaMemcpy2D", "hipMemcpy2D"),
    ("cudaMemset", "hipMemset"),
    ("cudaMemsetAsync", "hipMemsetAsync"),
    ("cudaMemcpyHostToDevice", "hipMemcpyHostToDevice"),
    ("cudaMemcpyDeviceToHost", "hipMemcpyDeviceToHost"),
    ("cudaMemcpyDeviceToDevice", "hipMemcpyDeviceToDevice"),
    ("cudaDeviceSynchronize", "hipDeviceSynchronize"),
    ("cudaSetDevice", "hipSetDevice"),
    ("cudaGetDevice", "hipGetDevice"),
    ("cudaGetDeviceCount", "hipGetDeviceCount"),
    ("cudaGetDeviceProperties", "hipGetDeviceProperties"),
    ("cudaDeviceProp", "hipDeviceProp_t"),
    ("cudaStream_t", "hipStream_t"),
    ("cudaStreamCreate", "hipStreamCreate"),
    ("cudaStreamDestroy", "hipStreamDestroy"),
    ("cudaStreamSynchronize", "hipStreamSynchronize"),
    ("cudaEvent_t", "hipEvent_t"),
    ("cudaEventCreate", "hipEventCreate"),
    ("cudaEventDestroy", "hipEventDestroy"),
    ("cudaEventRecord", "hipEventRecord"),
    ("cudaEventSynchronize", "hipEventSynchronize"),
    ("cudaEventElapsedTime", "hipEventElapsedTime"),
    // --- cuBLAS → rocBLAS ---
    ("cublasHandle_t", "rocblas_handle"),
    ("cublasCreate", "rocblas_create_handle"),
    ("cublasDestroy", "rocblas_destroy_handle"),
    ("cublasStatus_t", "rocblas_status"),
    ("CUBLAS_STATUS_SUCCESS", "rocblas_status_success"),
    ("cublasSetStream", "rocblas_set_stream"),
    ("CUBLAS_OP_N", "rocblas_operation_none"),
    ("CUBLAS_OP_T", "rocblas_operation_transpose"),
    ("CUBLAS_OP_C", "rocblas_operation_conjugate_transpose"),
    ("cublasSgemvStridedBatched", "rocblas_sgemv_strided_batched"),
    ("cublasDgemvStridedBatched", "rocblas_dgemv_strided_batched"),
    ("cublasCgemvStridedBatched", "rocblas_cgemv_strided_batched"),
    ("cublasZgemvStridedBatched", "rocblas_zgemv_strided_batched"),
    ("cublasDgemv", "rocblas_dgemv"),
    ("cublasZscal", "rocblas_zscal"),
    ("cublasDaxpy", "rocblas_daxpy"),
    ("cuDoubleComplex", "hipblasDoubleComplex"),
    ("cuFloatComplex", "hipblasComplex"),
    ("make_cuDoubleComplex", "make_hipblasDoubleComplex"),
    // --- cuFFT → hipFFT ---
    ("cufftHandle", "hipfftHandle"),
    ("cufftResult", "hipfftResult"),
    ("CUFFT_SUCCESS", "HIPFFT_SUCCESS"),
    ("cufftCreate", "hipfftCreate"),
    ("cufftDestroy", "hipfftDestroy"),
    ("cufftPlan1d", "hipfftPlan1d"),
    ("cufftPlanMany", "hipfftPlanMany"),
    ("cufftExecD2Z", "hipfftExecD2Z"),
    ("cufftExecZ2D", "hipfftExecZ2D"),
    ("cufftExecR2C", "hipfftExecR2C"),
    ("cufftExecC2R", "hipfftExecC2R"),
    ("cufftExecZ2Z", "hipfftExecZ2Z"),
    ("cufftSetStream", "hipfftSetStream"),
    ("CUFFT_D2Z", "HIPFFT_D2Z"),
    ("CUFFT_Z2D", "HIPFFT_Z2D"),
    ("CUFFT_R2C", "HIPFFT_R2C"),
    ("CUFFT_C2R", "HIPFFT_C2R"),
    ("CUFFT_FORWARD", "HIPFFT_FORWARD"),
    ("CUFFT_INVERSE", "HIPFFT_BACKWARD"),
    ("cufftDoubleComplex", "hipfftDoubleComplex"),
    ("cufftDoubleReal", "hipfftDoubleReal"),
    ("cufftComplex", "hipfftComplex"),
    ("cufftReal", "hipfftReal"),
    // --- cuRAND → hipRAND ---
    ("curandGenerator_t", "hiprandGenerator_t"),
    ("curandCreateGenerator", "hiprandCreateGenerator"),
    ("curandGenerateUniformDouble", "hiprandGenerateUniformDouble"),
    ("CURAND_RNG_PSEUDO_DEFAULT", "HIPRAND_RNG_PSEUDO_DEFAULT"),
    // --- cuTENSOR → hipTensor (v2 permutation APIs intentionally
    //     ABSENT: hipTensor does not support complex-double permutation;
    //     see Section 3.1 and the pipeline's fallback mechanism) ---
    ("cutensorHandle_t", "hiptensorHandle_t"),
    ("cutensorCreate", "hiptensorCreate"),
    ("cutensorDestroy", "hiptensorDestroy"),
];

/// `#include` path rewrites (line-level, applied before identifier pass).
pub const INCLUDE_MAPPINGS: &[(&str, &str)] = &[
    ("<cuda_runtime.h>", "<hip/hip_runtime.h>"),
    ("<cuda.h>", "<hip/hip_runtime.h>"),
    ("<cublas_v2.h>", "<rocblas/rocblas.h>"),
    ("<cufft.h>", "<hipfft/hipfft.h>"),
    ("<curand.h>", "<hiprand/hiprand.h>"),
    ("<cutensor.h>", "<hiptensor/hiptensor.hpp>"),
    // RCCL keeps the NCCL API; only the header changes.
    ("<nccl.h>", "<rccl/rccl.h>"),
];

/// CUDA namespace prefixes: an identifier starting with one of these that
/// has no mapping is reported as unsupported. (Plain `cu`/NCCL symbols are
/// excluded: NCCL is source-compatible with RCCL.)
const CUDA_PREFIXES: &[&str] =
    &["cuda", "cublas", "cufft", "curand", "cutensor", "CUFFT_", "CUBLAS_", "CURAND_", "CUTENSOR_"];

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Translate one CUDA source file to HIP.
pub fn hipify_source(src: &str) -> HipifyResult {
    let map: HashMap<&str, &str> = API_MAPPINGS.iter().copied().collect();
    let mut replacements = 0usize;
    let mut unsupported = Vec::new();

    // Pass 1: include-path rewrites.
    let mut text = String::with_capacity(src.len());
    for line in src.split_inclusive('\n') {
        if line.trim_start().starts_with("#include") {
            let mut rewritten = line.to_string();
            for (from, to) in INCLUDE_MAPPINGS {
                if rewritten.contains(from) {
                    rewritten = rewritten.replace(from, to);
                    replacements += 1;
                }
            }
            text.push_str(&rewritten);
        } else {
            text.push_str(line);
        }
    }

    // Pass 2: kernel launch syntax.
    let (text, launch_count) = rewrite_kernel_launches(&text);
    replacements += launch_count;

    // Pass 3: identifier-aware API mapping + unsupported detection.
    let source = rewrite_identifiers(&text, |ident, line| {
        if let Some(&hip) = map.get(ident) {
            replacements += 1;
            return Some(hip);
        }
        if CUDA_PREFIXES.iter().any(|p| ident.starts_with(p)) {
            unsupported.push(UnsupportedApi { name: ident.to_string(), line });
        }
        None
    });

    HipifyResult { source, replacements, unsupported }
}

/// Rebuild `text` with every whole identifier passed through `rewrite` (with
/// its 1-based line): `Some(new)` replaces it, `None` keeps it. Text that
/// is not an identifier is copied as is, so a mapped name inside a longer
/// identifier is never touched.
pub(crate) fn rewrite_identifiers<'a>(
    text: &str,
    mut rewrite: impl FnMut(&str, usize) -> Option<&'a str>,
) -> String {
    let mut out = String::with_capacity(text.len());
    let bytes: Vec<char> = text.chars().collect();
    let mut i = 0usize;
    let mut line = 1usize;
    while i < bytes.len() {
        let c = bytes[i];
        if c == '\n' {
            line += 1;
            out.push(c);
            i += 1;
        } else if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < bytes.len() && is_ident_char(bytes[i]) {
                i += 1;
            }
            let ident: String = bytes[start..i].iter().collect();
            out.push_str(rewrite(&ident, line).unwrap_or(&ident));
        } else {
            out.push(c);
            i += 1;
        }
    }
    out
}

/// Rewrite `kernel<<<grid, block[, shmem[, stream]]>>>(args…)` into
/// `hipLaunchKernelGGL(kernel, grid, block, shmem, stream, args…)`.
fn rewrite_kernel_launches(src: &str) -> (String, usize) {
    let mut out = String::with_capacity(src.len());
    let mut rest = src;
    let mut count = 0usize;
    while let Some(pos) = rest.find("<<<") {
        let before = &rest[..pos];
        // The kernel name is the identifier ending `before`.
        let name_start = before.rfind(|c: char| !is_ident_char(c)).map(|p| p + 1).unwrap_or(0);
        let prefix = &before[..name_start];
        let kernel_name = &before[name_start..];
        let body = &rest[pos + 3..];
        let Some(end) = body.find(">>>") else {
            // Malformed launch; emit unchanged and stop rewriting.
            out.push_str(rest);
            return (out, count);
        };
        let mut args: Vec<String> =
            split_top_level_commas(&body[..end]).iter().map(|s| s.trim().to_string()).collect();
        while args.len() < 4 {
            args.push("0".to_string());
        }
        let tail = body[end + 3..].trim_start();
        let Some(arg_list) = tail.strip_prefix('(') else {
            // No call argument list follows; leave this occurrence alone.
            out.push_str(&rest[..pos + 3]);
            rest = body;
            continue;
        };
        if kernel_name.is_empty() {
            out.push_str(&rest[..pos + 3]);
            rest = body;
            continue;
        }
        out.push_str(prefix);
        out.push_str("hipLaunchKernelGGL(");
        out.push_str(kernel_name);
        for a in &args {
            out.push_str(", ");
            out.push_str(a);
        }
        // Splice into the original argument list: the original `(`
        // becomes a `, ` (or `)` for zero-argument kernels); the original
        // closing parenthesis is reused verbatim.
        if let Some(after_paren) = arg_list.trim_start().strip_prefix(')') {
            out.push(')');
            rest = after_paren;
        } else {
            out.push_str(", ");
            rest = arg_list;
        }
        count += 1;
    }
    out.push_str(rest);
    (out, count)
}

/// Split on commas at parenthesis/bracket depth zero.
fn split_top_level_commas(s: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut depth = 0i32;
    let mut start = 0usize;
    for (i, c) in s.char_indices() {
        match c {
            '(' | '[' | '{' => depth += 1,
            ')' | ']' | '}' => depth -= 1,
            ',' if depth == 0 => {
                parts.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if !s[start..].trim().is_empty() || parts.is_empty() {
        parts.push(&s[start..]);
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runtime_calls_translate() {
        let src = "cudaMalloc(&p, n); cudaMemcpy(d, h, n, cudaMemcpyHostToDevice); cudaDeviceSynchronize();";
        let r = hipify_source(src);
        assert!(r.is_clean(), "{:?}", r.unsupported);
        assert_eq!(
            r.source,
            "hipMalloc(&p, n); hipMemcpy(d, h, n, hipMemcpyHostToDevice); hipDeviceSynchronize();"
        );
        assert_eq!(r.replacements, 4);
    }

    #[test]
    fn identifier_boundaries_respected() {
        // Substrings of identifiers must not be rewritten.
        let src = "int my_cudaMalloc_wrapper = 0; cudaMalloc(&p, n);";
        let r = hipify_source(src);
        assert!(r.source.contains("my_cudaMalloc_wrapper"));
        assert!(r.source.contains("hipMalloc(&p, n)"));
    }

    #[test]
    fn includes_rewritten() {
        let src = "#include <cuda_runtime.h>\n#include <cufft.h>\n#include <nccl.h>\n";
        let r = hipify_source(src);
        assert!(r.source.contains("<hip/hip_runtime.h>"));
        assert!(r.source.contains("<hipfft/hipfft.h>"));
        assert!(r.source.contains("<rccl/rccl.h>"));
        assert!(r.is_clean());
    }

    #[test]
    fn nccl_symbols_survive_unchanged() {
        // RCCL is NCCL-API-compatible: only the header moves.
        let src = "ncclAllReduce(sb, rb, n, ncclDouble, ncclSum, comm, s);";
        let r = hipify_source(src);
        assert_eq!(r.source, src);
        assert!(r.is_clean());
    }

    #[test]
    fn kernel_launch_rewritten() {
        let src = "pad_kernel<<<grid, block>>>(dst, src, n);";
        let r = hipify_source(src);
        assert_eq!(r.source, "hipLaunchKernelGGL(pad_kernel, grid, block, 0, 0, dst, src, n);");
    }

    #[test]
    fn kernel_launch_with_shmem_and_stream() {
        let src = "k<<<dim3(gx,gy), 256, shmem, stream>>>(a, b);";
        let r = hipify_source(src);
        assert_eq!(r.source, "hipLaunchKernelGGL(k, dim3(gx,gy), 256, shmem, stream, a, b);");
    }

    #[test]
    fn multiple_launches_in_one_file() {
        let src = "a<<<1, 2>>>(x);\nb<<<3, 4>>>(y);\n";
        let r = hipify_source(src);
        assert!(r.source.contains("hipLaunchKernelGGL(a, 1, 2, 0, 0, x);"));
        assert!(r.source.contains("hipLaunchKernelGGL(b, 3, 4, 0, 0, y);"));
    }

    #[test]
    fn unsupported_cutensor_permutation_detected() {
        // The exact gap the paper hit: cuTENSOR v2 permutation for complex
        // doubles has no hipTensor counterpart yet.
        let src = "cutensorPermute(handle, plan, alpha, in, out, stream);";
        let r = hipify_source(src);
        assert_eq!(r.unsupported.len(), 1);
        assert_eq!(r.unsupported[0].name, "cutensorPermute");
        assert_eq!(r.unsupported[0].line, 1);
    }

    #[test]
    fn unsupported_reports_line_numbers() {
        let src = "cudaMalloc(&p, n);\n\ncutensorCreatePermutation(h);\n";
        let r = hipify_source(src);
        assert_eq!(r.unsupported.len(), 1);
        assert_eq!(r.unsupported[0].line, 3);
    }

    #[test]
    fn cublas_and_cufft_translate() {
        let src = "cublasZgemvStridedBatched(h, CUBLAS_OP_C, m, n, &a, A, lda, sa, x, 1, sx, &b, y, 1, sy, bc);\ncufftExecD2Z(plan, in, out);";
        let r = hipify_source(src);
        assert!(r.is_clean(), "{:?}", r.unsupported);
        assert!(r
            .source
            .contains("rocblas_zgemv_strided_batched(h, rocblas_operation_conjugate_transpose"));
        assert!(r.source.contains("hipfftExecD2Z(plan, in, out)"));
    }

    #[test]
    fn hipified_source_is_fixed_point() {
        let src = "cudaMalloc(&p, n); k<<<1, 2>>>(p);";
        let once = hipify_source(src);
        let twice = hipify_source(&once.source);
        assert_eq!(once.source, twice.source);
        assert_eq!(twice.replacements, 0);
    }

    #[test]
    fn top_level_comma_splitting() {
        assert_eq!(split_top_level_commas("a, b"), vec!["a", " b"]);
        assert_eq!(split_top_level_commas("dim3(1,2), 256"), vec!["dim3(1,2)", " 256"]);
        assert_eq!(split_top_level_commas("x"), vec!["x"]);
    }
}
