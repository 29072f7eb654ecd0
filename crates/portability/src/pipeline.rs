//! The on-the-fly build pipeline (Section 3.1).
//!
//! Mirrors the CMake integration the paper describes: the only maintained
//! sources are CUDA; building for AMD hipifies each source into the
//! "build directory" (here, in-memory artifacts); building for NVIDIA is
//! a pass-through. Per-source content hashes make edits re-trigger
//! hipification of exactly the modified files. CUDA APIs with no HIP
//! counterpart fail the build with a "Not Supported" error unless a
//! custom-kernel fallback has been registered — the mechanism the paper
//! used to plug the cuTENSOR-v2 complex-permutation gap.

use std::collections::HashMap;

use crate::hipify::{hipify_source, rewrite_identifiers, UnsupportedApi};

/// GPU vendor a kernel source compiles for: the vendor selects the
/// translation path, nothing else.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GpuVendor {
    /// NVIDIA path — the maintained sources compile as-is.
    Cuda,
    /// AMD path — sources are hipified on the fly.
    Hip,
}

impl GpuVendor {
    /// The compiler the build system invokes for this target.
    pub fn compiler(self) -> &'static str {
        match self {
            GpuVendor::Cuda => "nvcc",
            GpuVendor::Hip => "amdclang++",
        }
    }
}

/// Build failure modes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BuildError {
    /// A CUDA API had no HIP mapping and no registered fallback.
    NotSupported {
        /// Source file name.
        file: String,
        /// The offending APIs.
        apis: Vec<UnsupportedApi>,
    },
    /// Unknown source name.
    UnknownSource(String),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::NotSupported { file, apis } => {
                write!(f, "Not Supported: {file}: ")?;
                for a in apis {
                    write!(f, "{} (line {}) ", a.name, a.line)?;
                }
                Ok(())
            }
            BuildError::UnknownSource(s) => write!(f, "unknown source {s}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// One translated (or passed-through) compilation unit.
#[derive(Clone, Debug)]
pub struct Artifact {
    /// Logical source name.
    pub name: String,
    /// Target vendor.
    pub vendor: GpuVendor,
    /// The source text handed to the (simulated) compiler.
    pub source: String,
    /// Rewrites performed (0 for CUDA pass-through).
    pub replacements: usize,
    /// Whether this unit was rebuilt (false = served from cache).
    pub rebuilt: bool,
}

/// FNV-1a content hash (no external dependencies).
fn fnv1a(data: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in data.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The on-the-fly hipify build pipeline.
pub struct HipifyPipeline {
    sources: HashMap<String, String>,
    /// API name → replacement source appended to units using it.
    fallbacks: HashMap<String, FallbackKernel>,
    /// (name, vendor) → (source hash, artifact).
    cache: HashMap<(String, GpuVendor), (u64, Artifact)>,
}

/// A custom kernel registered to replace an unsupported API.
#[derive(Clone, Debug)]
pub struct FallbackKernel {
    /// The host entry point that replaces the unsupported call.
    pub entry_point: String,
    /// The (CUDA) source of the replacement, hipified along with the
    /// unit that uses it.
    pub source: String,
}

impl Default for HipifyPipeline {
    fn default() -> Self {
        Self::new()
    }
}

impl HipifyPipeline {
    /// Empty pipeline.
    pub fn new() -> Self {
        HipifyPipeline { sources: HashMap::new(), fallbacks: HashMap::new(), cache: HashMap::new() }
    }

    /// The FFTMatvec application tree: all maintained CUDA sources plus
    /// the custom complex-permutation fallback (Section 3.1's worked
    /// example) already registered.
    pub fn fftmatvec_app() -> Self {
        let mut p = Self::new();
        for (name, src) in crate::kernels_cuda::ALL_SOURCES {
            p.add_source(name, src);
        }
        p.register_fallback(
            "cutensorPermutation",
            "permute_setup_tensor_custom",
            crate::kernels_cuda::COMPLEX_PERMUTE_FALLBACK,
        );
        p
    }

    /// Add or replace a maintained CUDA source.
    pub fn add_source(&mut self, name: &str, source: &str) {
        self.sources.insert(name.to_string(), source.to_string());
    }

    /// Registered source names (sorted).
    pub fn source_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.sources.keys().cloned().collect();
        names.sort();
        names
    }

    /// Register a custom kernel replacing an unsupported CUDA API.
    pub fn register_fallback(&mut self, api: &str, entry_point: &str, source: &str) {
        self.fallbacks.insert(
            api.to_string(),
            FallbackKernel { entry_point: entry_point.to_string(), source: source.to_string() },
        );
    }

    /// Build one source for a vendor target.
    pub fn build_one(&mut self, name: &str, vendor: GpuVendor) -> Result<Artifact, BuildError> {
        let src = self
            .sources
            .get(name)
            .ok_or_else(|| BuildError::UnknownSource(name.to_string()))?
            .clone();
        let hash = fnv1a(&src);
        if let Some((cached_hash, artifact)) = self.cache.get(&(name.to_string(), vendor)) {
            if *cached_hash == hash {
                let mut hit = artifact.clone();
                hit.rebuilt = false;
                return Ok(hit);
            }
        }

        let artifact = match vendor {
            GpuVendor::Cuda => Artifact {
                name: name.to_string(),
                vendor,
                source: src.clone(),
                replacements: 0,
                rebuilt: true,
            },
            GpuVendor::Hip => {
                let mut result = hipify_source(&src);
                // Each API's custom kernel is spliced once, however often
                // the unit calls it.
                let mut used: Vec<(&str, &FallbackKernel)> = Vec::new();
                let mut remaining = Vec::new();
                for u in result.unsupported {
                    match self.fallbacks.get_key_value(&u.name) {
                        Some(_) if used.iter().any(|(api, _)| *api == u.name) => {}
                        Some((api, fb)) => used.push((api.as_str(), fb)),
                        None => remaining.push(u),
                    }
                }
                if !remaining.is_empty() {
                    return Err(BuildError::NotSupported {
                        file: name.to_string(),
                        apis: remaining,
                    });
                }
                // Redirect every call (whole identifiers only) and append
                // each (hipified) custom kernel to the unit.
                result.source = rewrite_identifiers(&result.source, |ident, _| {
                    used.iter()
                        .find(|(api, _)| *api == ident)
                        .map(|(_, fb)| fb.entry_point.as_str())
                });
                for (_, fb) in used {
                    let fb_hip = hipify_source(&fb.source);
                    debug_assert!(fb_hip.is_clean(), "fallback source must hipify cleanly");
                    result.source.push_str("\n// --- custom fallback kernel ---\n");
                    result.source.push_str(&fb_hip.source);
                    result.replacements += 1 + fb_hip.replacements;
                }
                Artifact {
                    name: name.to_string(),
                    vendor,
                    source: result.source,
                    replacements: result.replacements,
                    rebuilt: true,
                }
            }
        };
        self.cache.insert((name.to_string(), vendor), (hash, artifact.clone()));
        Ok(artifact)
    }

    /// Build every registered source for a vendor target.
    pub fn build_all(&mut self, vendor: GpuVendor) -> Result<Vec<Artifact>, BuildError> {
        let names = self.source_names();
        names.into_iter().map(|n| self.build_one(&n, vendor)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cuda_build_is_passthrough() {
        let mut p = HipifyPipeline::fftmatvec_app();
        let arts = p.build_all(GpuVendor::Cuda).unwrap();
        assert_eq!(arts.len(), crate::kernels_cuda::ALL_SOURCES.len());
        for a in &arts {
            assert_eq!(a.replacements, 0, "{}", a.name);
        }
    }

    #[test]
    fn cuda_build_keeps_sources_verbatim() {
        let mut p = HipifyPipeline::fftmatvec_app();
        for a in &p.build_all(GpuVendor::Cuda).unwrap() {
            let (_, text) = crate::kernels_cuda::ALL_SOURCES
                .iter()
                .find(|(name, _)| *name == a.name)
                .unwrap_or_else(|| panic!("{} is not a maintained source", a.name));
            assert_eq!(a.source, *text, "{} must pass through byte for byte", a.name);
        }
    }

    #[test]
    fn same_logical_kernels_on_both_vendors() {
        let mut p = HipifyPipeline::fftmatvec_app();
        let names = |arts: Vec<Artifact>| arts.into_iter().map(|a| a.name).collect::<Vec<_>>();
        let cuda = names(p.build_all(GpuVendor::Cuda).unwrap());
        let hip = names(p.build_all(GpuVendor::Hip).unwrap());
        assert_eq!(cuda, hip, "one source tree, two targets");
        assert_eq!(cuda, p.source_names());
    }

    #[test]
    fn compilers() {
        assert_eq!(GpuVendor::Cuda.compiler(), "nvcc");
        assert_eq!(GpuVendor::Hip.compiler(), "amdclang++");
    }

    /// A pipeline holding one source plus the cuTENSOR fallback.
    fn with_permute_fallback(src: &str) -> HipifyPipeline {
        let mut p = HipifyPipeline::new();
        p.add_source("unit.cu", src);
        p.register_fallback(
            "cutensorPermutation",
            "permute_setup_tensor_custom",
            crate::kernels_cuda::COMPLEX_PERMUTE_FALLBACK,
        );
        p
    }

    #[test]
    fn a_fallback_kernel_is_spliced_once_per_api() {
        let once = "#include <cutensor.h>\ncutensorPermutation(h, a, in, out);\n";
        let twice = "#include <cutensor.h>\ncutensorPermutation(h, a, in, out);\n\
                     cutensorPermutation(h, a, out, in);\n";
        let one = with_permute_fallback(once).build_one("unit.cu", GpuVendor::Hip).unwrap();
        let two = with_permute_fallback(twice).build_one("unit.cu", GpuVendor::Hip).unwrap();
        for art in [&one, &two] {
            assert_eq!(art.source.matches("custom fallback kernel").count(), 1, "{}", art.source);
            assert_eq!(art.source.matches("void permute_cdouble_kernel(").count(), 1);
            assert!(!art.source.contains("cutensorPermutation"));
        }
        assert_eq!(two.source.matches("permute_setup_tensor_custom(h, a,").count(), 2);
        // Include, redirect, and the fallback's own three rewrites.
        assert_eq!(one.replacements, 5);
        assert_eq!(two.replacements, one.replacements);
    }

    #[test]
    fn the_fallback_redirect_respects_identifiers() {
        let src = "cutensorPermutation(h, a, in, out);\n\
                   int my_cutensorPermutation_wrapper = 0;\n";
        let art = with_permute_fallback(src).build_one("unit.cu", GpuVendor::Hip).unwrap();
        assert!(art.source.starts_with("permute_setup_tensor_custom(h, a, in, out);\n"));
        assert!(art.source.contains("int my_cutensorPermutation_wrapper = 0;"), "{}", art.source);
        assert!(!art.source.contains("my_permute_setup_tensor_custom_wrapper"));
    }

    #[test]
    fn hip_build_translates_everything_with_fallback() {
        let mut p = HipifyPipeline::fftmatvec_app();
        let arts = p.build_all(GpuVendor::Hip).unwrap();
        assert_eq!(arts.len(), 6);
        for a in &arts {
            assert!(a.replacements > 0, "{} had no rewrites", a.name);
            // No CUDA runtime identifiers may survive.
            assert!(!a.source.contains("cudaMalloc"), "{}", a.name);
            assert!(!a.source.contains("<<<"), "{} kept launch syntax", a.name);
        }
        // The permutation unit got the custom kernel spliced in.
        let perm = arts.iter().find(|a| a.name == "complex_permute.cu").unwrap();
        assert!(perm.source.contains("permute_setup_tensor_custom"));
        assert!(perm.source.contains("custom fallback kernel"));
        assert!(!perm.source.contains("cutensorPermutation"));
    }

    #[test]
    fn hip_build_without_fallback_reports_not_supported() {
        let mut p = HipifyPipeline::new();
        p.add_source("complex_permute.cu", crate::kernels_cuda::COMPLEX_PERMUTE);
        let err = p.build_one("complex_permute.cu", GpuVendor::Hip).unwrap_err();
        match err {
            BuildError::NotSupported { file, apis } => {
                assert_eq!(file, "complex_permute.cu");
                assert!(apis.iter().any(|a| a.name == "cutensorPermutation"));
            }
            other => panic!("wrong error {other:?}"),
        }
        // The display form carries the paper's wording.
        let msg = p.build_one("complex_permute.cu", GpuVendor::Hip).unwrap_err().to_string();
        assert!(msg.contains("Not Supported"));
    }

    #[test]
    fn cache_serves_unmodified_sources_and_rebuilds_edits() {
        let mut p = HipifyPipeline::fftmatvec_app();
        let first = p.build_one("pad_kernel.cu", GpuVendor::Hip).unwrap();
        assert!(first.rebuilt);
        let second = p.build_one("pad_kernel.cu", GpuVendor::Hip).unwrap();
        assert!(!second.rebuilt, "unchanged source must come from cache");
        assert_eq!(first.source, second.source);
        // Edit the CUDA source: recompilation re-hipifies just that file.
        let edited = crate::kernels_cuda::PAD_KERNEL.replace("256", "128");
        p.add_source("pad_kernel.cu", &edited);
        let third = p.build_one("pad_kernel.cu", GpuVendor::Hip).unwrap();
        assert!(third.rebuilt);
        assert!(third.source.contains("128"));
        // Other files remain cached.
        let other = p.build_one("unpad_kernel.cu", GpuVendor::Hip).unwrap();
        let other2 = p.build_one("unpad_kernel.cu", GpuVendor::Hip).unwrap();
        assert!(other.rebuilt);
        assert!(!other2.rebuilt);
    }

    #[test]
    fn unknown_source_errors() {
        let mut p = HipifyPipeline::new();
        assert_eq!(
            p.build_one("nope.cu", GpuVendor::Hip).unwrap_err(),
            BuildError::UnknownSource("nope.cu".into())
        );
    }

    #[test]
    fn nccl_unit_translates_header_only() {
        let mut p = HipifyPipeline::fftmatvec_app();
        let art = p.build_one("nccl_reduce.cu", GpuVendor::Hip).unwrap();
        assert!(art.source.contains("<rccl/rccl.h>"));
        assert!(art.source.contains("ncclReduce"), "RCCL keeps NCCL symbols");
        assert!(art.source.contains("hipStreamSynchronize"));
    }

    #[test]
    fn fnv_hash_changes_with_content() {
        assert_ne!(fnv1a("a"), fnv1a("b"));
        assert_eq!(fnv1a("same"), fnv1a("same"));
    }
}
