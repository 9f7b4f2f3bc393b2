//! Chunk sizing and disjoint-write sharing for the parallel kernels.
//!
//! The paper's CPU backend uses OpenMP dynamic scheduling with a chunk size
//! of `|items| / (threads * 16)` for both the wirelength (§III-A) and density
//! (§III-B1) kernels, because net degrees and cell sizes are heterogeneous.
//! [`paper_chunk_size`] is that formula; the scheduling loop itself lives in
//! [`WorkerPool`](crate::WorkerPool), the one executor.

/// The paper's dynamic chunk size: `items / (threads * 16)`, at least 1.
pub fn paper_chunk_size(items: usize, threads: usize) -> usize {
    (items / (threads.max(1) * 16)).max(1)
}

/// A shared mutable slice for kernels whose workers write disjoint elements.
///
/// The wirelength and density kernels parallelize over nets/pins/cells, and
/// each worker writes only the slots owned by its items (e.g. `WL_e` for its
/// nets, `dWL/dx_p` for its pins). This wrapper makes those writes possible
/// under scoped threads without per-element atomics.
pub struct DisjointSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: std::marker::PhantomData<&'a mut [T]>,
}

// SAFETY: sharing the raw pointer across workers is sound because the type's
// only write path (`write`) is documented to require disjoint indices per
// caller contract, and reads happen only after the parallel section joins.
unsafe impl<'a, T: Send> Sync for DisjointSlice<'a, T> {}
unsafe impl<'a, T: Send> Send for DisjointSlice<'a, T> {}

impl<'a, T> DisjointSlice<'a, T> {
    /// Wraps a mutable slice.
    pub fn new(slice: &'a mut [T]) -> Self {
        Self {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the slice is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Writes `value` at `index`.
    ///
    /// # Safety
    ///
    /// Callers must guarantee that no two concurrent calls target the same
    /// `index` and that `index < len()`.
    #[inline]
    pub unsafe fn write(&self, index: usize, value: T) {
        debug_assert!(index < self.len);
        *self.ptr.add(index) = value;
    }

    /// Reads the value at `index`.
    ///
    /// # Safety
    ///
    /// Callers must guarantee exclusive access to `index` (the same
    /// single-owner discipline as [`DisjointSlice::write`]) and
    /// `index < len()`.
    #[inline]
    pub unsafe fn read(&self, index: usize) -> T
    where
        T: Copy,
    {
        debug_assert!(index < self.len);
        *self.ptr.add(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_size_matches_paper_formula() {
        assert_eq!(paper_chunk_size(1600, 10), 10);
        assert_eq!(paper_chunk_size(5, 40), 1);
        assert_eq!(paper_chunk_size(0, 4), 1);
    }

    #[test]
    fn disjoint_slice_writes_land() {
        let mut data = vec![0usize; 64];
        {
            let shared = DisjointSlice::new(&mut data);
            std::thread::scope(|scope| {
                for t in 0..3 {
                    let shared = &shared;
                    scope.spawn(move || {
                        for i in (t..64).step_by(3) {
                            // SAFETY: the strides partition 0..64, so each
                            // index is written by exactly one thread.
                            unsafe { shared.write(i, i * 2) };
                        }
                    });
                }
            });
        }
        assert!(data.iter().enumerate().all(|(i, &v)| v == i * 2));
    }
}
