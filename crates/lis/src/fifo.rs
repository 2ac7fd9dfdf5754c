//! Bounded latency-insensitive FIFOs.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;

use crate::clock::ClockState;

/// Configuration of a link between two modules.
///
/// `capacity` bounds the number of elements in flight (backpressure), and
/// `delay` is the number of *consumer-clock edges* after enqueue at which an
/// element becomes visible to the consumer:
///
/// * `delay = 1` models a FIFO with registered output — the standard
///   element in a latency-insensitive pipeline.
/// * `delay = 2` models the paper's two-element pipeline FIFOs, which "add
///   at most 2 cycles to the total latency" (§4.3.1), and is also the
///   default inserted for clock-domain crossings (a two-flop synchronizer).
///
/// # Example
///
/// ```
/// use wilis_lis::LinkSpec;
/// let spec = LinkSpec::new(2).delay(2);
/// assert_eq!(spec.capacity(), 2);
/// assert_eq!(spec.visibility_delay(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkSpec {
    capacity: usize,
    delay: u64,
}

impl LinkSpec {
    /// A link holding at most `capacity` elements, with the default
    /// one-edge visibility delay.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — a zero-capacity FIFO can never carry
    /// a token and always indicates a composition bug.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "link capacity must be positive");
        Self { capacity, delay: 1 }
    }

    /// Sets the visibility delay in consumer-clock edges.
    ///
    /// # Panics
    ///
    /// Panics if `delay` is zero: combinational (same-edge) forwarding
    /// would make the simulation sensitive to module tick order.
    pub fn delay(mut self, delay: u64) -> Self {
        assert!(delay > 0, "visibility delay must be at least one edge");
        self.delay = delay;
        self
    }

    /// The element capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The visibility delay in consumer edges.
    pub fn visibility_delay(&self) -> u64 {
        self.delay
    }
}

struct Entry<T> {
    value: T,
    /// Earliest consumer edge index at which this element may be dequeued.
    visible_at: u64,
}

/// Shared FIFO storage. One producer, one consumer.
pub(crate) struct FifoCore<T> {
    queue: VecDeque<Entry<T>>,
    spec: LinkSpec,
    consumer_clock: Rc<ClockState>,
    enq_count: u64,
    deq_count: u64,
}

impl<T> FifoCore<T> {
    fn new(spec: LinkSpec, consumer_clock: Rc<ClockState>) -> Self {
        Self {
            queue: VecDeque::with_capacity(spec.capacity()),
            spec,
            consumer_clock,
            enq_count: 0,
            deq_count: 0,
        }
    }

    fn can_enq(&self) -> bool {
        self.queue.len() < self.spec.capacity()
    }

    fn enq(&mut self, value: T) {
        assert!(
            self.can_enq(),
            "enq on full FIFO (capacity {}): check can_enq() first",
            self.spec.capacity()
        );
        let now = self.consumer_clock.edges.get();
        self.queue.push_back(Entry {
            value,
            visible_at: now + self.spec.visibility_delay(),
        });
        self.enq_count += 1;
    }

    fn head_visible(&self) -> bool {
        self.queue
            .front()
            .is_some_and(|e| self.consumer_clock.edges.get() >= e.visible_at)
    }

    fn deq(&mut self) -> Option<T> {
        if self.head_visible() {
            self.deq_count += 1;
            Some(self.queue.pop_front().expect("head was visible").value) // lint: allow(panic-policy) — head_visible() was checked on the line above
        } else {
            None
        }
    }
}

/// A FIFO link; the engine hands out the two port halves.
pub(crate) struct Fifo<T> {
    core: Rc<RefCell<FifoCore<T>>>,
}

impl<T> Fifo<T> {
    pub(crate) fn new(spec: LinkSpec, consumer_clock: Rc<ClockState>) -> Self {
        Self {
            core: Rc::new(RefCell::new(FifoCore::new(spec, consumer_clock))),
        }
    }

    pub(crate) fn ports(&self) -> (Sink<T>, Source<T>) {
        (
            Sink {
                core: Rc::clone(&self.core),
            },
            Source {
                core: Rc::clone(&self.core),
            },
        )
    }
}

/// Producer port of a link: the side a module *enqueues* into.
///
/// Named for the hardware convention: a module's output drives the sink end
/// of the connecting FIFO.
pub struct Sink<T> {
    core: Rc<RefCell<FifoCore<T>>>,
}

impl<T> Sink<T> {
    /// Whether an element can be enqueued this cycle (FIFO not full).
    pub fn can_enq(&self) -> bool {
        self.core.borrow().can_enq()
    }

    /// Enqueues an element.
    ///
    /// # Panics
    ///
    /// Panics if the FIFO is full. Latency-insensitive modules must guard
    /// with [`Sink::can_enq`]; an unguarded enqueue is a protocol violation
    /// equivalent to dropping data on a full hardware FIFO.
    pub fn enq(&self, value: T) {
        self.core.borrow_mut().enq(value);
    }

    /// Total elements ever enqueued (for throughput accounting).
    pub fn enq_count(&self) -> u64 {
        self.core.borrow().enq_count
    }
}

impl<T> fmt::Debug for Sink<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let core = self.core.borrow();
        write!(
            f,
            "Sink(len {}/{}, enq {})",
            core.queue.len(),
            core.spec.capacity(),
            core.enq_count
        )
    }
}

/// Consumer port of a link: the side a module *dequeues* from.
pub struct Source<T> {
    core: Rc<RefCell<FifoCore<T>>>,
}

impl<T> Source<T> {
    /// Whether an element is available to dequeue this cycle.
    pub fn can_deq(&self) -> bool {
        self.core.borrow().head_visible()
    }

    /// Dequeues the head element if one is visible this cycle.
    pub fn deq(&self) -> Option<T> {
        self.core.borrow_mut().deq()
    }

    /// Total elements ever dequeued.
    pub fn deq_count(&self) -> u64 {
        self.core.borrow().deq_count
    }

    /// Number of elements currently buffered, visible to the consumer or
    /// still in their visibility-delay window.
    ///
    /// Exposed for quiescence detection and occupancy instrumentation.
    pub fn pending_len(&self) -> u64 {
        self.core.borrow().queue.len() as u64
    }
}

impl<T> fmt::Debug for Source<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let core = self.core.borrow();
        write!(
            f,
            "Source(len {}/{}, deq {})",
            core.queue.len(),
            core.spec.capacity(),
            core.deq_count
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ClockState;
    use crate::Freq;
    use std::cell::Cell;

    fn test_clock() -> Rc<ClockState> {
        Rc::new(ClockState {
            name: "test".into(),
            freq: Freq::mhz(1),
            edges: Cell::new(0),
            period_units: Cell::new(1),
        })
    }

    #[test]
    fn element_invisible_until_delay_elapses() {
        let clk = test_clock();
        let fifo = Fifo::new(LinkSpec::new(4).delay(2), Rc::clone(&clk));
        let (tx, rx) = fifo.ports();
        tx.enq(7u32);
        assert!(!rx.can_deq(), "visible too early");
        clk.edges.set(1);
        assert!(!rx.can_deq(), "visible after 1 of 2 edges");
        clk.edges.set(2);
        assert_eq!(rx.deq(), Some(7));
        assert_eq!(rx.deq(), None);
    }

    #[test]
    fn capacity_backpressure() {
        let clk = test_clock();
        let fifo = Fifo::new(LinkSpec::new(2), Rc::clone(&clk));
        let (tx, rx) = fifo.ports();
        assert!(tx.can_enq());
        tx.enq(1u8);
        tx.enq(2);
        assert!(!tx.can_enq(), "full at capacity");
        clk.edges.set(1);
        assert_eq!(rx.deq(), Some(1));
        assert!(tx.can_enq(), "space freed by deq");
    }

    #[test]
    #[should_panic(expected = "full FIFO")]
    fn unguarded_enq_panics() {
        let clk = test_clock();
        let fifo = Fifo::new(LinkSpec::new(1), clk);
        let (tx, _rx) = fifo.ports();
        tx.enq(1u8);
        tx.enq(2);
    }

    #[test]
    fn fifo_order_preserved() {
        let clk = test_clock();
        let fifo = Fifo::new(LinkSpec::new(8), Rc::clone(&clk));
        let (tx, rx) = fifo.ports();
        for i in 0..5u32 {
            tx.enq(i);
        }
        clk.edges.set(10);
        let out: Vec<u32> = std::iter::from_fn(|| rx.deq()).collect();
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        assert_eq!(rx.deq_count(), 5);
        assert_eq!(tx.enq_count(), 5);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = LinkSpec::new(0);
    }

    #[test]
    #[should_panic(expected = "at least one edge")]
    fn zero_delay_rejected() {
        let _ = LinkSpec::new(1).delay(0);
    }
}
