//! The cheap cloneable [`Obs`] handle that instrumented code holds,
//! and the [`Label`] every metric carries.
//!
//! [`Obs`] is `Option<Arc<MemoryRecorder>>` under the hood. A disabled
//! handle (`Obs::disabled()`) is a `None` and every method is an
//! inlined early return — the zero-cost-when-disabled path the rest of
//! the workspace relies on.

use std::cell::RefCell;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use crate::memory::MemoryRecorder;

/// A metric label: most metrics are unlabelled (`None`), per-relation
/// metrics carry the relation's storage file index (`Idx`), and a few
/// carry a static name (`Name`).
///
/// `Idx` labels render through the recorder's index-name registry (see
/// [`Obs::register_index`]) so exports show `stock` instead of
/// `file7`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Label {
    /// No label; the metric name stands alone.
    None,
    /// A numeric index, typically a storage `FileId`.
    Idx(u32),
    /// A static string label, e.g. a transaction type.
    Name(&'static str),
}

thread_local! {
    /// The active span-name stack for this thread; spans nest
    /// lexically, so a thread-local suffices and no locking is needed
    /// to build paths.
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// The handle instrumented code holds. Cloning is a pointer copy; a
/// disabled handle makes every call a one-branch no-op.
#[derive(Clone, Default)]
pub struct Obs {
    inner: Option<Arc<MemoryRecorder>>,
}

impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.inner.is_some())
            .finish()
    }
}

impl Obs {
    /// A handle that records nothing and costs one branch per call.
    #[must_use]
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// A handle recording into `recorder`.
    #[must_use]
    pub fn new(recorder: Arc<MemoryRecorder>) -> Self {
        Self {
            inner: Some(recorder),
        }
    }

    /// Whether a recorder is attached.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The attached recorder, if any (used by handle resolution).
    pub(crate) fn recorder(&self) -> Option<&Arc<MemoryRecorder>> {
        self.inner.as_ref()
    }

    /// Adds `delta` to a counter.
    #[inline]
    pub fn counter(&self, name: &'static str, label: Label, delta: u64) {
        if let Some(r) = &self.inner {
            r.counter_add(name, label, delta);
        }
    }

    /// Sets a gauge.
    #[inline]
    pub fn gauge(&self, name: &'static str, label: Label, value: f64) {
        if let Some(r) = &self.inner {
            r.gauge_set(name, label, value);
        }
    }

    /// Records a histogram sample.
    #[inline]
    pub fn observe(&self, name: &'static str, label: Label, value: u64) {
        if let Some(r) = &self.inner {
            r.observe(name, label, value);
        }
    }

    /// Registers a display name for a numeric label index.
    pub fn register_index(&self, idx: u32, name: &str) {
        if let Some(r) = &self.inner {
            r.register_index(idx, name);
        }
    }

    /// Opens a tracing span. The returned guard records the span's
    /// wall-clock duration (keyed by the full nesting path, e.g.
    /// `new_order/btree_lookup`) when dropped. Disabled handles return
    /// an inert guard and never touch the thread-local stack.
    #[inline]
    pub fn span(&self, name: &'static str) -> SpanGuard {
        match &self.inner {
            None => SpanGuard { active: None },
            Some(r) => {
                let path = SPAN_STACK.with(|s| {
                    let mut s = s.borrow_mut();
                    s.push(name);
                    s.join("/")
                });
                SpanGuard {
                    active: Some(ActiveSpan {
                        recorder: Arc::clone(r),
                        path,
                        start: Instant::now(),
                    }),
                }
            }
        }
    }
}

struct ActiveSpan {
    recorder: Arc<MemoryRecorder>,
    path: String,
    start: Instant,
}

/// RAII guard for a span opened with [`Obs::span`]; records on drop.
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(span) = self.active.take() {
            let nanos = span.start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
            SPAN_STACK.with(|s| {
                s.borrow_mut().pop();
            });
            span.recorder.span_record(&span.path, nanos);
        }
    }
}
