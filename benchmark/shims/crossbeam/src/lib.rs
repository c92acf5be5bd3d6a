//! Offline stand-in for `crossbeam` 0.8: only `crossbeam::channel`, as a
//! mutex-and-condvar MPMC queue with crossbeam's disconnection rules.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
    use std::time::{Duration, Instant};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    struct Shared<T> {
        state: Mutex<State<T>>,
        /// `None` = unbounded.
        cap: Option<usize>,
        not_empty: Condvar,
        not_full: Condvar,
    }

    impl<T> Shared<T> {
        fn lock(&self) -> MutexGuard<'_, State<T>> {
            self.state.lock().unwrap_or_else(PoisonError::into_inner)
        }
    }

    pub struct Sender<T>(Arc<Shared<T>>);
    pub struct Receiver<T>(Arc<Shared<T>>);

    #[derive(PartialEq, Eq, Clone, Copy)]
    pub struct SendError<T>(pub T);

    #[derive(PartialEq, Eq, Clone, Copy)]
    pub enum TrySendError<T> {
        Full(T),
        Disconnected(T),
    }

    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub struct RecvError;

    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }

    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum RecvTimeoutError {
        Timeout,
        Disconnected,
    }

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> fmt::Debug for TrySendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TrySendError::Full(_) => f.write_str("Full(..)"),
                TrySendError::Disconnected(_) => f.write_str("Disconnected(..)"),
            }
        }
    }

    fn channel<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
            }),
            cap,
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (Sender(Arc::clone(&shared)), Receiver(shared))
    }

    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        channel(None)
    }

    /// A channel holding at most `cap` messages (`cap >= 1`; the pgrid
    /// crates never ask for a rendezvous channel).
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        assert!(cap > 0, "zero-capacity channels are not provided");
        channel(Some(cap))
    }

    impl<T> Sender<T> {
        pub fn try_send(&self, msg: T) -> Result<(), TrySendError<T>> {
            let mut state = self.0.lock();
            if state.receivers == 0 {
                return Err(TrySendError::Disconnected(msg));
            }
            if self.0.cap.is_some_and(|cap| state.queue.len() >= cap) {
                return Err(TrySendError::Full(msg));
            }
            state.queue.push_back(msg);
            drop(state);
            self.0.not_empty.notify_one();
            Ok(())
        }

        /// Blocks while the channel is full.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            let mut state = self.0.lock();
            loop {
                if state.receivers == 0 {
                    return Err(SendError(msg));
                }
                if !self.0.cap.is_some_and(|cap| state.queue.len() >= cap) {
                    break;
                }
                state = self
                    .0
                    .not_full
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            state.queue.push_back(msg);
            drop(state);
            self.0.not_empty.notify_one();
            Ok(())
        }

        pub fn len(&self) -> usize {
            self.0.lock().queue.len()
        }

        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Receiver<T> {
        fn pop(&self, state: &mut State<T>) -> Option<T> {
            let msg = state.queue.pop_front()?;
            if self.0.cap.is_some() {
                self.0.not_full.notify_one();
            }
            Some(msg)
        }

        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut state = self.0.lock();
            match self.pop(&mut state) {
                Some(msg) => Ok(msg),
                None if state.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }

        pub fn recv(&self) -> Result<T, RecvError> {
            let mut state = self.0.lock();
            loop {
                if let Some(msg) = self.pop(&mut state) {
                    return Ok(msg);
                }
                if state.senders == 0 {
                    return Err(RecvError);
                }
                state = self
                    .0
                    .not_empty
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }

        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut state = self.0.lock();
            loop {
                if let Some(msg) = self.pop(&mut state) {
                    return Ok(msg);
                }
                if state.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Err(RecvTimeoutError::Timeout);
                }
                state = self
                    .0
                    .not_empty
                    .wait_timeout(state, left)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
        }

        pub fn len(&self) -> usize {
            self.0.lock().queue.len()
        }

        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0.lock().senders += 1;
            Sender(Arc::clone(&self.0))
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.0.lock().receivers += 1;
            Receiver(Arc::clone(&self.0))
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut state = self.0.lock();
            state.senders -= 1;
            if state.senders == 0 {
                drop(state);
                self.0.not_empty.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut state = self.0.lock();
            state.receivers -= 1;
            if state.receivers == 0 {
                drop(state);
                self.0.not_full.notify_all();
            }
        }
    }
}
