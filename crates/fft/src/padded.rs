//! The circulant embedding's two memory phases, folded into the real
//! transform's first and last passes.
//!
//! FFTMatvec transforms each time series zero-padded to twice its length
//! (the block-circulant embedding) and keeps only the first half of each
//! inverse transform. Both ends touch the caller's vectors in the
//! time-outer/series-inner layout (TOSI: sample `t` of series `s` at
//! `x[t·n_series + s]`). The views here let the passes of a transform
//! read and write that layout in place:
//!
//! * [`PaddedSeries`] is one series of a TOSI `f64` matrix seen as the
//!   packed signal of the half-length trick, `z[j] = x[2j] + i·x[2j+1]`,
//!   over the padded length `2·nt`: every sample is rounded through the
//!   pad tier `P` into the transform tier, and `z[j]` is `+0` for
//!   `j ≥ ⌈nt/2⌉` without being stored anywhere. For odd `nt` the last
//!   live value is half real (`x[nt]` is an embedding zero).
//! * [`UnpaddedSeries`] is one series of a TOSI `f64` output that keeps
//!   samples `t < nt` of the inverse transform, each routed through the
//!   unpad tier `Q` (`Q = f64` when the transform tier widens exactly into
//!   the unpad tier, so the route is the identity).
//! * Both views have a sample stride and a lane stride — where the series
//!   in the next lane of a lane group starts. A TOSI series has lane
//!   stride 1 (the group's series are adjacent columns). With `ROWS` set
//!   they are the rows of a row-major matrix instead ([`PaddedRows`],
//!   [`UnpaddedRows`]: sample stride 1, lane stride the row length), the
//!   innermost axis of a multi-level real transform
//!   (`BatchedRealFft::{forward_rows, inverse_rows}`): a row holds `head`
//!   samples of a transform of any even length `n ≥ head` (the output
//!   keeps `keep ≤ n`), so live and kept samples may reach past the half.
//!   Only the series-in-lanes stage bodies take rows, as complex columns
//!   below; a row the lanes do not take is gathered into a slice.
//! * [`ComplexColumn`] is one column of a complex TOSI matrix of `rows`
//!   rows as the input of a transform of length `n ≥ rows`: rows past the
//!   matrix are `+0` and never stored. [`ComplexColumnOut`] is one column
//!   of a complex TOSI output that keeps the first `rows` outputs of an
//!   inverse transform, each scaled by `1/n`. They are the outer axes of
//!   a multi-level real transform (`BatchedFft::{forward_columns,
//!   inverse_columns}`), and only the series-in-lanes stage bodies take
//!   them: a group the lanes do not take gathers its columns into slices.
//!
//! The rounding is the composition of the kernels the pipeline used to
//! run: `T::from_f64(P::from_f64(x).to_f64())` is the pad's store into
//! tier `P` followed by the cast into tier `T`; `Q::from_f64(v.to_f64())`
//! is the unpad's route. The zeros the first pass reads are the `+0`
//! values the pad wrote, so every value meets the same expression tree.
//!
//! Every vector stage body of the FFT executors reads a [`Source`] and
//! writes a [`Sink`]: a slice, or one of the views. A padded series
//! yields the embedding's `+0` for every operand past its live half, and
//! an unpadded series scales each kept output by `1/nt`, routes it and
//! drops the rest. The scalar stage bodies read and write slices only:
//! a padded first pass no vector body takes is gathered into a slice
//! first ([`PaddedSeries::packed`]), and an unpadded last pass no vector
//! body takes is staged in a slice and put into the series
//! ([`Sink::put`]), so the scalar bodies are compiled once per tier, not
//! once per pad tier and unpad route.
//! For an even radix the live half of a stage's input is its operand rows
//! `l < r/2`, and, in a last stage (`m = 1`), the kept half of its output
//! is its output rows `j < r/2`; the vector bodies state each row's half
//! as a constant, so a padded operand is never loaded and a dropped output
//! is dead code.

use core::marker::PhantomData;

use fftmatvec_numeric::simd::{recast, recast_mut};
use fftmatvec_numeric::{Complex, Real};

/// What a [`Source`] is, as a stage body reads it. An explicit tag, not a
/// niche in a pointer, so a stage body's `match` on a source it was
/// instantiated for folds away.
#[repr(u8)]
pub(crate) enum Operands<'a, T, P> {
    /// Operand `i` is element `i`.
    Slice(&'a [Complex<T>]),
    /// Operand `i` is packed value `z[i]` of a padded series, `+0` past
    /// the live half (the series-in-lanes bodies read the series of a
    /// group of adjacent columns, one per lane).
    Padded(PaddedSeries<'a, P>),
    /// Operand `i` is packed value `z[i]` of a padded row, `+0` past its
    /// head (the series-in-lanes bodies only: they read a group of
    /// adjacent rows, one per lane).
    Rows(PaddedRows<'a, P>),
    /// Operand `i` is row `i` of a column of a complex TOSI matrix, `+0`
    /// past its rows (the series-in-lanes bodies only: they read a group
    /// of adjacent columns, one per lane).
    Column(ComplexColumn<'a, T>),
}

/// What a [`Sink`] is, as a stage body writes it (tagged as
/// [`Operands`]).
#[repr(u8)]
pub(crate) enum Outputs<'a, T, Q> {
    /// Output `o` is element `o`.
    Slice(&'a mut [Complex<T>]),
    /// Output `o` is packed value `z[o]` of an unpadded series: kept,
    /// scaled by `1/nt` and routed when it holds a sample, dropped past
    /// the live half.
    Unpadded(&'a mut UnpaddedSeries<Q>),
    /// Output `o` is packed value `z[o]` of an unpadded row: kept, scaled
    /// and routed where it holds a sample the row keeps (the
    /// series-in-lanes bodies only, as [`Operands::Rows`]).
    Rows(&'a mut UnpaddedRows<Q>),
    /// Output `o` is row `o` of a column of a complex TOSI matrix: scaled
    /// by `1/n` and stored when the matrix has that row, dropped past it
    /// (the series-in-lanes bodies only, as [`Operands::Column`]).
    Column(&'a mut ComplexColumnOut<T>),
}

/// Where a stage of tier `T` reads its operands.
pub(crate) trait Source<T: Real> {
    /// The pad tier of a padded series (`f64` for a slice, which has none).
    type Pad: Real;
    /// The same source read in tier `U`.
    type In<U: Real>: Source<U> + ?Sized;

    fn operands(&self) -> Operands<'_, T, Self::Pad>;

    /// This source in tier `U`: `None` for a slice of another tier (a
    /// padded series reads into any tier).
    fn tier<U: Real>(&self) -> Option<&Self::In<U>>;

    /// Operands of the stage's input.
    #[inline(always)]
    fn len(&self) -> usize {
        match self.operands() {
            Operands::Slice(x) => x.len(),
            Operands::Padded(x) => x.nt(),
            Operands::Rows(x) => x.h(),
            Operands::Column(x) => x.n(),
        }
    }

    /// Operand `i`.
    #[inline(always)]
    fn get(&self, i: usize) -> Complex<T> {
        match self.operands() {
            Operands::Slice(x) => x[i],
            Operands::Padded(x) => x.packed(i),
            Operands::Rows(_) => unreachable!("padded rows are read in the lanes"),
            Operands::Column(x) => x.get(i),
        }
    }
}

/// Where a stage of tier `T` writes its outputs.
pub(crate) trait Sink<T: Real> {
    /// The unpad route of an unpadded series (`f64` for a slice).
    type Route: Real;
    /// The same sink written in tier `U`.
    type In<U: Real>: Sink<U> + ?Sized;

    fn outputs(&mut self) -> Outputs<'_, T, Self::Route>;

    /// This sink in tier `U`: `None` for a slice of another tier.
    fn tier_mut<U: Real>(&mut self) -> Option<&mut Self::In<U>>;

    /// Outputs of the stage.
    fn len(&self) -> usize;

    /// Output `o`.
    #[inline(always)]
    fn put(&mut self, o: usize, v: Complex<T>) {
        match self.outputs() {
            Outputs::Slice(x) => x[o] = v,
            Outputs::Unpadded(x) if o < x.live() => {
                x.put_packed(o, v.scale(T::from_usize(x.nt()).recip()))
            }
            Outputs::Unpadded(_) => {}
            Outputs::Rows(_) => unreachable!("unpadded rows are written in the lanes"),
            Outputs::Column(x) => x.put(o, v.scale(T::from_usize(x.n()).recip())),
        }
    }
}

impl<T: Real> Source<T> for [Complex<T>] {
    type Pad = f64;
    type In<U: Real> = [Complex<U>];

    #[inline(always)]
    fn operands(&self) -> Operands<'_, T, f64> {
        Operands::Slice(self)
    }

    #[inline(always)]
    fn tier<U: Real>(&self) -> Option<&[Complex<U>]> {
        recast(self)
    }
}

impl<'a, T: Real, P: Real> Source<T> for PaddedSeries<'a, P> {
    type Pad = P;
    type In<U: Real> = Self;

    #[inline(always)]
    fn operands(&self) -> Operands<'_, T, P> {
        Operands::Padded(*self)
    }

    #[inline(always)]
    fn tier<U: Real>(&self) -> Option<&Self> {
        Some(self)
    }
}

impl<'a, T: Real, P: Real> Source<T> for PaddedRows<'a, P> {
    type Pad = P;
    type In<U: Real> = Self;

    #[inline(always)]
    fn operands(&self) -> Operands<'_, T, P> {
        Operands::Rows(*self)
    }

    #[inline(always)]
    fn tier<U: Real>(&self) -> Option<&Self> {
        Some(self)
    }
}

impl<T: Real> Sink<T> for [Complex<T>] {
    type Route = f64;
    type In<U: Real> = [Complex<U>];

    #[inline(always)]
    fn outputs(&mut self) -> Outputs<'_, T, f64> {
        Outputs::Slice(self)
    }

    #[inline(always)]
    fn tier_mut<U: Real>(&mut self) -> Option<&mut [Complex<U>]> {
        recast_mut(self)
    }

    #[inline(always)]
    fn len(&self) -> usize {
        <[Complex<T>]>::len(self)
    }
}

impl<T: Real, Q: Real> Sink<T> for UnpaddedSeries<Q> {
    type Route = Q;
    type In<U: Real> = Self;

    #[inline(always)]
    fn outputs(&mut self) -> Outputs<'_, T, Q> {
        Outputs::Unpadded(self)
    }

    #[inline(always)]
    fn tier_mut<U: Real>(&mut self) -> Option<&mut Self> {
        Some(self)
    }

    #[inline(always)]
    fn len(&self) -> usize {
        self.h
    }
}

impl<T: Real, Q: Real> Sink<T> for UnpaddedRows<Q> {
    type Route = Q;
    type In<U: Real> = Self;

    #[inline(always)]
    fn outputs(&mut self) -> Outputs<'_, T, Q> {
        Outputs::Rows(self)
    }

    #[inline(always)]
    fn tier_mut<U: Real>(&mut self) -> Option<&mut Self> {
        Some(self)
    }

    #[inline(always)]
    fn len(&self) -> usize {
        self.h
    }
}

impl<'a, T: Real> Source<T> for ComplexColumn<'a, T> {
    type Pad = f64;
    type In<U: Real> = ComplexColumn<'a, U>;

    #[inline(always)]
    fn operands(&self) -> Operands<'_, T, f64> {
        Operands::Column(*self)
    }

    #[inline(always)]
    fn tier<U: Real>(&self) -> Option<&ComplexColumn<'a, U>> {
        // SAFETY: `T == U`, so the two types are one.
        same_tier::<T, U>().then(|| unsafe { &*(self as *const Self).cast() })
    }
}

impl<T: Real> Sink<T> for ComplexColumnOut<T> {
    type Route = f64;
    type In<U: Real> = ComplexColumnOut<U>;

    #[inline(always)]
    fn outputs(&mut self) -> Outputs<'_, T, f64> {
        Outputs::Column(self)
    }

    #[inline(always)]
    fn tier_mut<U: Real>(&mut self) -> Option<&mut ComplexColumnOut<U>> {
        // SAFETY: `T == U`, so the two types are one.
        same_tier::<T, U>().then(|| unsafe { &mut *(self as *mut Self).cast() })
    }

    #[inline(always)]
    fn len(&self) -> usize {
        self.n
    }
}

/// Is tier `U` tier `T`? What lets a complex column recast itself.
#[inline(always)]
fn same_tier<T: Real, U: Real>() -> bool {
    core::any::TypeId::of::<T>() == core::any::TypeId::of::<U>()
}

/// One series of a TOSI `f64` matrix as the packed, zero-padded input of
/// a real transform of length `2·nt` (see the module docs); with `ROWS`,
/// one row of a row-major matrix ([`PaddedRows`]).
pub(crate) struct PaddedSeries<'a, P, const ROWS: bool = false> {
    /// Sample `t` of the series is `x[t·stride]`; sample `t` of the series
    /// `k` lanes on, `x[k·lane + t·stride]`.
    x: &'a [f64],
    stride: usize,
    lane: usize,
    /// Live samples: every later one of the `2·h` is an embedding zero.
    head: usize,
    /// Packed values: half the real length.
    h: usize,
    pad: PhantomData<P>,
}

/// One row of a row-major `f64` matrix as the packed, zero-padded input of
/// a real transform: a padded series whose lane stride is the row length.
pub(crate) type PaddedRows<'a, P> = PaddedSeries<'a, P, true>;

impl<P, const ROWS: bool> Clone for PaddedSeries<'_, P, ROWS> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<P, const ROWS: bool> Copy for PaddedSeries<'_, P, ROWS> {}

impl<'a, P: Real> PaddedSeries<'a, P> {
    /// The series whose sample `t < nt` is `x[t·stride]`.
    pub(crate) fn new(x: &'a [f64], stride: usize, nt: usize) -> Self {
        assert!(stride >= 1, "padded series stride must be positive");
        assert!(nt == 0 || x.len() > (nt - 1) * stride, "padded series runs past its input");
        PaddedSeries { x, stride, lane: 1, head: nt, h: nt, pad: PhantomData }
    }

    /// Samples per series (the unpadded length).
    #[inline(always)]
    pub(crate) fn nt(&self) -> usize {
        self.h
    }
}

impl<'a, P: Real> PaddedRows<'a, P> {
    /// The rows of `head` samples each, back to back from `x` on, of a
    /// real transform of length `n`: sample `t < head` of the row `k`
    /// lanes on is `x[k·head + t]`, samples `head..n` are zeros.
    pub(crate) fn rows(x: &'a [f64], head: usize, n: usize) -> Self {
        assert!(
            n % 2 == 0 && (1..=n).contains(&head) && x.len() >= head,
            "padded rows of {head} samples for n = {n} in {} elements",
            x.len()
        );
        PaddedSeries { x, stride: 1, lane: head, head, h: n / 2, pad: PhantomData }
    }

    /// Live samples per row.
    #[inline(always)]
    pub(crate) fn head(&self) -> usize {
        self.head
    }

    /// Packed values per row: half the real length.
    #[inline(always)]
    pub(crate) fn h(&self) -> usize {
        self.h
    }

    /// Where the row one lane on starts, relative to this one.
    #[inline(always)]
    pub(crate) fn lane(&self) -> usize {
        self.lane
    }
}

impl<'a, P: Real, const ROWS: bool> PaddedSeries<'a, P, ROWS> {
    /// Distance between consecutive samples in the input.
    #[inline(always)]
    pub(crate) fn stride(&self) -> usize {
        self.stride
    }

    /// Elements of the input slice, from sample 0 on: how far past a
    /// sample a reader of neighbouring columns may go.
    #[inline(always)]
    pub(crate) fn extent(&self) -> usize {
        self.x.len()
    }

    /// Where sample `t` is read.
    ///
    /// # Safety
    ///
    /// `t < head`.
    #[inline(always)]
    pub(crate) unsafe fn at(&self, t: usize) -> *const f64 {
        debug_assert!(t < self.head);
        self.x.as_ptr().add(t * self.stride)
    }

    /// Sample `t < head`, rounded through the pad tier into tier `T`.
    #[inline(always)]
    pub(crate) fn sample<T: Real>(&self, t: usize) -> T {
        T::from_f64(P::from_f64(self.x[t * self.stride]).to_f64())
    }

    /// [`Self::sample`] without the bounds check.
    ///
    /// # Safety
    ///
    /// `t < head`.
    #[inline(always)]
    pub(crate) unsafe fn sample_unchecked<T: Real>(&self, t: usize) -> T {
        // SAFETY: `new` and `rows` checked that the input reaches sample
        // `head − 1`, and `t < head`.
        T::from_f64(P::from_f64(*self.at(t)).to_f64())
    }

    /// Packed value `z[j]` of the padded series: `+0` past the live half.
    /// Out of line: its callers (the vector bodies' remainders, the
    /// gather of a first pass no vector body takes) are cold, the vector
    /// bodies are instantiated per pad tier, and the inlined 16-bit
    /// rounding made each copy of them several kilobytes larger.
    #[inline(never)]
    pub(crate) fn packed<T: Real>(&self, j: usize) -> Complex<T> {
        let t = 2 * j;
        if t + 1 < self.head {
            Complex::new(self.sample(t), self.sample(t + 1))
        } else if t < self.head {
            Complex::new(self.sample(t), T::ZERO)
        } else {
            Complex::zero()
        }
    }
}

/// One series of a TOSI `f64` output that keeps the first `nt` samples of
/// an inverse real transform of length `2·nt` (see the module docs); with
/// `ROWS`, one row of a row-major output ([`UnpaddedRows`]).
pub(crate) struct UnpaddedSeries<Q, const ROWS: bool = false> {
    /// Sample `t` of the series lands in `*out.add(t·stride)`, and sample
    /// `t` of the series `k` lanes on in `*out.add(k·lane + t·stride)`.
    out: *mut f64,
    stride: usize,
    lane: usize,
    /// Kept samples.
    keep: usize,
    /// Packed values: half the real length.
    h: usize,
    /// Series writable from this one on, one lane apart: the
    /// series-in-lanes bodies store a group of series, one per lane.
    cols: usize,
    route: PhantomData<Q>,
}

/// One row of a row-major `f64` output that keeps the first samples of an
/// inverse real transform: an unpadded series whose lane stride is the
/// row length.
pub(crate) type UnpaddedRows<Q> = UnpaddedSeries<Q, true>;

impl<Q: Real> UnpaddedSeries<Q> {
    /// The series whose sample `t < nt` lands in `*out.add(t·stride)`,
    /// with `cols` adjacent series beside it.
    ///
    /// # Safety
    ///
    /// `out.add(t·stride + k)` is valid for writes for every `t < nt` and
    /// `k < cols`, and nothing else reads or writes those elements while
    /// the value lives.
    pub(crate) unsafe fn new(out: *mut f64, stride: usize, nt: usize, cols: usize) -> Self {
        UnpaddedSeries { out, stride, lane: 1, keep: nt, h: nt, cols, route: PhantomData }
    }

    /// Samples per series (the unpadded length).
    #[inline(always)]
    pub(crate) fn nt(&self) -> usize {
        self.h
    }

    /// Distance between consecutive samples in the output.
    #[inline(always)]
    pub(crate) fn stride(&self) -> usize {
        self.stride
    }

    /// Complex values `z[j]` of the packed output that hold a kept sample:
    /// `⌈nt/2⌉`.
    #[inline(always)]
    pub(crate) fn live(&self) -> usize {
        self.keep.div_ceil(2)
    }

    /// Store sample `t < nt`, routed through the unpad tier.
    #[inline(always)]
    pub(crate) fn put<T: Real>(&mut self, t: usize, v: T) {
        assert!(t < self.keep, "unpadded sample {t} past {}", self.keep);
        // SAFETY: `t < keep` (`nt` of a TOSI series), just checked.
        unsafe { self.put_unchecked(t, v) };
    }

    /// [`Self::put`] without the bounds check.
    ///
    /// # Safety
    ///
    /// `t < nt`.
    #[inline(always)]
    pub(crate) unsafe fn put_unchecked<T: Real>(&mut self, t: usize, v: T) {
        // SAFETY: `t < nt`, the extent `new`'s caller guaranteed.
        *self.at(t) = Q::from_f64(v.to_f64()).to_f64();
    }

    /// Store the kept samples `2j` and (when `2j + 1 < nt`) `2j + 1` of
    /// the packed output value `z[j]`, `j < live()`. Out of line, as
    /// [`PaddedSeries::packed`].
    #[inline(never)]
    pub(crate) fn put_packed<T: Real>(&mut self, j: usize, v: Complex<T>) {
        self.put(2 * j, v.re);
        if 2 * j + 1 < self.keep {
            self.put(2 * j + 1, v.im);
        }
    }
}

impl<Q: Real> UnpaddedRows<Q> {
    /// The rows that keep `keep` samples each, back to back from `out` on,
    /// of an inverse real transform of length `n`: sample `t < keep` of
    /// the row `k` lanes on lands in `*out.add(k·keep + t)`, for `cols`
    /// rows.
    ///
    /// # Safety
    ///
    /// `out.add(i)` is valid for writes for every `i < cols·keep`, and
    /// nothing else reads or writes those elements while the value lives.
    pub(crate) unsafe fn rows(out: *mut f64, keep: usize, n: usize, cols: usize) -> Self {
        assert!(n % 2 == 0 && (1..=n).contains(&keep), "unpadded rows keep {keep} of n = {n}");
        UnpaddedSeries { out, stride: 1, lane: keep, keep, h: n / 2, cols, route: PhantomData }
    }

    /// Kept samples per row.
    #[inline(always)]
    pub(crate) fn keep(&self) -> usize {
        self.keep
    }

    /// Packed values per row: half the real length.
    #[inline(always)]
    pub(crate) fn h(&self) -> usize {
        self.h
    }

    /// Where the row one lane on starts, relative to this one.
    #[inline(always)]
    pub(crate) fn lane(&self) -> usize {
        self.lane
    }
}

impl<Q: Real, const ROWS: bool> UnpaddedSeries<Q, ROWS> {
    /// Series writable from this one on, one lane apart.
    #[inline(always)]
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// Where sample `t` is stored.
    ///
    /// # Safety
    ///
    /// `t < keep`.
    #[inline(always)]
    pub(crate) unsafe fn at(&self, t: usize) -> *mut f64 {
        debug_assert!(t < self.keep);
        self.out.add(t * self.stride)
    }
}

/// One column of a complex TOSI matrix (`rows` rows, `stride` apart) as
/// the input of a transform of length `n ≥ rows`: operand `i < rows` is
/// row `i`, every later one `+0`, never stored or loaded. The forward
/// column transforms of a multi-level embedding read their zero-extended
/// axis this way.
pub(crate) struct ComplexColumn<'a, T> {
    /// Row `t` of the column is `x[t·stride]`.
    x: &'a [Complex<T>],
    stride: usize,
    rows: usize,
    n: usize,
}

impl<T> Clone for ComplexColumn<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for ComplexColumn<'_, T> {}

impl<'a, T: Real> ComplexColumn<'a, T> {
    /// The column whose row `t < rows` is `x[t·stride]`, read by a
    /// transform of length `n`.
    pub(crate) fn new(x: &'a [Complex<T>], stride: usize, rows: usize, n: usize) -> Self {
        assert!(
            stride >= 1 && (1..=n).contains(&rows),
            "complex column of {rows} rows for n = {n}"
        );
        assert!(x.len() > (rows - 1) * stride, "complex column runs past its input");
        ComplexColumn { x, stride, rows, n }
    }

    /// Rows the matrix holds.
    #[inline(always)]
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Operands of the transform.
    #[inline(always)]
    pub(crate) fn n(&self) -> usize {
        self.n
    }

    /// Distance between consecutive rows.
    #[inline(always)]
    pub(crate) fn stride(&self) -> usize {
        self.stride
    }

    /// Elements of the input slice, from row 0 on: how far past a row a
    /// reader of neighbouring columns may go.
    #[inline(always)]
    pub(crate) fn extent(&self) -> usize {
        self.x.len()
    }

    /// Where row `t` is read.
    ///
    /// # Safety
    ///
    /// `t < rows`.
    #[inline(always)]
    pub(crate) unsafe fn at(&self, t: usize) -> *const Complex<T> {
        debug_assert!(t < self.rows);
        self.x.as_ptr().add(t * self.stride)
    }

    /// Row `t < rows` of this column and the `cols − 1` beside it.
    pub(crate) fn row(&self, t: usize, cols: usize) -> &'a [Complex<T>] {
        assert!(t < self.rows, "complex column row {t} past {}", self.rows);
        &self.x[t * self.stride..][..cols]
    }

    /// Operand `i`: row `i`, `+0` past the rows.
    #[inline(always)]
    pub(crate) fn get(&self, i: usize) -> Complex<T> {
        if i < self.rows {
            self.x[i * self.stride]
        } else {
            Complex::zero()
        }
    }
}

/// One column of a complex TOSI output (`rows` rows, `stride` apart) that
/// keeps the first `rows` outputs of an inverse transform of length `n`,
/// each scaled by `1/n` — the multiply of the plan's scaling pass.
pub(crate) struct ComplexColumnOut<T> {
    /// Row `t` of the column lands in `*out.add(t·stride)`.
    out: *mut Complex<T>,
    stride: usize,
    rows: usize,
    n: usize,
    /// Adjacent columns writable at every row, as [`UnpaddedSeries`].
    cols: usize,
}

impl<T: Real> ComplexColumnOut<T> {
    /// The column whose row `t < rows` lands in `*out.add(t·stride)`, with
    /// `cols` adjacent columns beside it, written by a transform of
    /// length `n ≥ rows`.
    ///
    /// # Safety
    ///
    /// `out.add(t·stride + k)` is valid for writes for every `t < rows`
    /// and `k < cols`, and nothing else reads or writes those elements
    /// while the value lives.
    pub(crate) unsafe fn new(
        out: *mut Complex<T>,
        stride: usize,
        rows: usize,
        n: usize,
        cols: usize,
    ) -> Self {
        assert!(rows <= n, "complex column of {rows} rows for n = {n}");
        ComplexColumnOut { out, stride, rows, n, cols }
    }

    /// Rows the output keeps.
    #[inline(always)]
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Outputs of the transform.
    #[inline(always)]
    pub(crate) fn n(&self) -> usize {
        self.n
    }

    /// Adjacent columns writable at every row.
    #[inline(always)]
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// Where row `t` is stored.
    ///
    /// # Safety
    ///
    /// `t < rows`.
    #[inline(always)]
    pub(crate) unsafe fn at(&self, t: usize) -> *mut Complex<T> {
        debug_assert!(t < self.rows);
        self.out.add(t * self.stride)
    }

    /// Store output `o` (already scaled) when the column keeps it.
    #[inline(always)]
    pub(crate) fn put(&mut self, o: usize, v: Complex<T>) {
        if o < self.rows {
            self.store(o, 0, v);
        }
    }

    /// Store `v` as row `t < rows` of column `k < cols`.
    #[inline(always)]
    pub(crate) fn store(&mut self, t: usize, k: usize, v: Complex<T>) {
        assert!(t < self.rows && k < self.cols, "complex column output ({t}, {k}) out of bounds");
        // SAFETY: in bounds, just checked: the extent `new`'s caller
        // guaranteed.
        unsafe { *self.at(t).add(k) = v };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fftmatvec_numeric::half::f16;

    #[test]
    fn packed_values_round_through_the_pad_tier_and_pad_with_positive_zeros() {
        // Two series, nt = 3, TOSI: x[t·2 + s].
        let x = [1.0 + 2f64.powi(-30), -1.0, 2.0, -2.0, 3.0, -0.0];
        let s1 = PaddedSeries::<f64>::new(&x[1..], 2, 3);
        assert_eq!(s1.packed::<f64>(0), Complex::new(-1.0, -2.0));
        // The half-real value keeps the sample's −0 and pads with +0.
        let last = s1.packed::<f64>(1);
        assert_eq!((last.re.to_bits(), last.im.to_bits()), ((-0.0f64).to_bits(), 0));
        assert_eq!(s1.packed::<f64>(2).re.to_bits(), 0);
        // Rounding through f32 loses the low bits, then widens exactly.
        let s0 = PaddedSeries::<f32>::new(&x, 2, 3);
        assert_eq!(s0.packed::<f64>(0).re, 1.0);
        assert_eq!(s0.sample::<f16>(2), f16::from_f64(3.0));
    }

    #[test]
    #[should_panic(expected = "runs past its input")]
    fn a_short_input_is_rejected() {
        let _ = PaddedSeries::<f64>::new(&[0.0; 5], 2, 4);
    }

    #[test]
    fn kept_samples_land_at_their_stride_through_the_route() {
        let mut out = [f64::NAN; 6];
        // SAFETY: t·2 < 6 for t < 3, and `out` is borrowed by nothing else.
        let mut sink = unsafe { UnpaddedSeries::<f32>::new(out.as_mut_ptr(), 2, 3, 1) };
        assert_eq!(sink.live(), 2);
        sink.put_packed(0, Complex::new(1.0 + 2f64.powi(-30), 2.0));
        sink.put_packed(1, Complex::new(3.0, f64::INFINITY));
        assert_eq!(out[0], 1.0, "routed through f32");
        assert_eq!([out[2], out[4]], [2.0, 3.0]);
        assert!(out[1].is_nan() && out[3].is_nan() && out[5].is_nan(), "other series untouched");
    }
}
