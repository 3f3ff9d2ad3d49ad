//! The CPS (Checkpoint Status) register model.
//!
//! Rock reports *why* a hardware transaction failed through the CPS
//! register; ATMTP models the same interface, and NZTM's retry policy
//! reads it: "NZTM retries the transaction in hardware ... only if the
//! reason for aborting was due to a transactional (coherence) conflict
//! as determined by the CPS register" (§4.3).

/// Why a hardware transaction aborted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CpsReason {
    /// Coherence conflict with another transaction or ordinary store —
    /// worth retrying in hardware.
    Conflict,
    /// Resource exhaustion: read set exceeded the L1, or the store
    /// buffer overflowed. Retrying in hardware cannot succeed.
    Capacity,
    /// Environmental failure: TLB miss, interrupt, context switch, ...
    /// (ATMTP aborts on these events, §4.1).
    Other,
    /// The transaction aborted itself (e.g. §2.4's explicit self-abort on
    /// detecting a conflicting software transaction).
    Explicit,
}

impl CpsReason {
    /// Whether NZTM's retry policy considers another hardware attempt
    /// worthwhile.
    pub fn hw_retry_worthwhile(self) -> bool {
        matches!(self, CpsReason::Conflict | CpsReason::Explicit)
    }

    /// Encoding used in the per-core doom flag (0 = not doomed).
    pub(crate) fn encode(self) -> u64 {
        match self {
            CpsReason::Conflict => 1,
            CpsReason::Capacity => 2,
            CpsReason::Other => 3,
            CpsReason::Explicit => 4,
        }
    }

    pub(crate) fn decode(v: u64) -> Option<Self> {
        match v {
            1 => Some(CpsReason::Conflict),
            2 => Some(CpsReason::Capacity),
            3 => Some(CpsReason::Other),
            4 => Some(CpsReason::Explicit),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trips() {
        for r in [CpsReason::Conflict, CpsReason::Capacity, CpsReason::Other, CpsReason::Explicit]
        {
            assert_eq!(CpsReason::decode(r.encode()), Some(r));
        }
        assert_eq!(CpsReason::decode(0), None);
    }

    #[test]
    fn retry_policy_follows_paper() {
        assert!(CpsReason::Conflict.hw_retry_worthwhile());
        assert!(!CpsReason::Capacity.hw_retry_worthwhile());
        assert!(!CpsReason::Other.hw_retry_worthwhile());
    }
}
