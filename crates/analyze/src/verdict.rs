//! The per-bit criticality verdict.

use std::collections::BTreeSet;
use std::fmt;
use tmr_faultsim::FaultClass;
use tmr_netlist::Domain;

/// The domains of a domain mask, by bit position: [`Domain`] order.
const MASK_DOMAINS: [Domain; 5] = [
    Domain::None,
    Domain::Tr0,
    Domain::Tr1,
    Domain::Tr2,
    Domain::Voter,
];

/// The mask bits of the three redundant domains.
const REDUNDANT_BITS: u8 = 0b0_1110;

/// The bit of `domain` in an affected-domain mask: one bit per [`Domain`]
/// variant, in [`Domain`] order.
pub(crate) fn domain_bit(domain: Domain) -> u8 {
    match domain {
        Domain::None => 1 << 0,
        Domain::Tr0 => 1 << 1,
        Domain::Tr1 => 1 << 2,
        Domain::Tr2 => 1 << 3,
        Domain::Voter => 1 << 4,
    }
}

/// The lowest domain of a non-empty mask.
fn lowest_domain(mask: u8) -> Domain {
    MASK_DOMAINS[mask.trailing_zeros() as usize]
}

/// The static criticality of one configuration bit.
///
/// The verdict is derived purely structurally — from the routed design's
/// node/PIP usage database and the netlist's TMR domain tags — with no
/// simulation. It answers the question the paper answers dynamically with a
/// fault-injection campaign: *can this upset defeat the TMR scheme?*
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Verdict {
    /// The flip cannot change the behaviour of the configured circuit: it
    /// touches an unused resource, an unexercised LUT entry, a same-net PIP,
    /// or a bridge candidate with no victim.
    Benign,
    /// The fault corrupts signal copies of exactly one TMR domain. For a
    /// redundant domain (`tr0`/`tr1`/`tr2`) in a fully voted design this is
    /// the case TMR masks by construction; for [`Domain::Voter`] or
    /// [`Domain::None`] the fault sits outside the protection and remains
    /// observable.
    SingleDomain(Domain),
    /// The fault couples two *distinct* redundant domains — the
    /// voter-defeating mechanism the paper identifies (upset "b" of its
    /// Fig. 1). `domains` is the ordered pair of coupled domains and `class`
    /// the structural effect that couples them.
    DomainCrossing {
        /// The two distinct redundant domains coupled by the fault, in
        /// [`Domain`] order.
        domains: (Domain, Domain),
        /// The structural effect class (Table 1/4 taxonomy).
        class: FaultClass,
    },
}

impl Verdict {
    /// Derives the verdict from the set of affected domains
    /// ([`tmr_faultsim::BitEffect::affected_domains`]) and the effect class.
    ///
    /// Precedence: two distinct redundant domains make the bit
    /// [`Verdict::DomainCrossing`], naming the two lowest in [`Domain`]
    /// order; otherwise the *least protected* affected domain wins —
    /// [`Domain::None`] over [`Domain::Voter`] over a redundant domain — so a
    /// fault touching both `tr0` and voter logic is reported (and kept
    /// observable) as a voter fault, never mistaken for a maskable
    /// single-copy fault.
    pub fn from_affected_domains(domains: &BTreeSet<Domain>, class: FaultClass) -> Self {
        let mask = domains
            .iter()
            .fold(0, |mask, &domain| mask | domain_bit(domain));
        Self::from_domain_mask(mask, class)
    }

    /// The rule of [`Verdict::from_affected_domains`] on an affected-domain
    /// mask (one [`domain_bit`] per affected domain): the form the analyzer
    /// stores per bit and merges clusters over.
    pub(crate) fn from_domain_mask(mask: u8, class: FaultClass) -> Self {
        let redundant = mask & REDUNDANT_BITS;
        if redundant.count_ones() >= 2 {
            let second = redundant & (redundant - 1);
            return Verdict::DomainCrossing {
                domains: (lowest_domain(redundant), lowest_domain(second)),
                class,
            };
        }
        if mask & domain_bit(Domain::None) != 0 {
            Verdict::SingleDomain(Domain::None)
        } else if mask & domain_bit(Domain::Voter) != 0 {
            Verdict::SingleDomain(Domain::Voter)
        } else if redundant != 0 {
            Verdict::SingleDomain(lowest_domain(redundant))
        } else {
            Verdict::Benign
        }
    }

    /// Returns `true` for verdicts that can defeat TMR: the domain-crossing
    /// bits, the paper's central object of study.
    pub fn may_defeat_tmr(&self) -> bool {
        matches!(self, Verdict::DomainCrossing { .. })
    }

    /// Returns `true` if the fault could be observable at the voted outputs.
    ///
    /// `voted_tmr` reports whether the analyzed design satisfies the
    /// structural TMR preconditions (every output bit pad-voted across all
    /// three redundant domains, cross-domain reads confined to voter cells);
    /// only then is a fault confined to a single *redundant* domain
    /// guaranteed to be voted out.
    pub fn possibly_observable(&self, voted_tmr: bool) -> bool {
        match self {
            Verdict::Benign => false,
            Verdict::SingleDomain(domain) => !(voted_tmr && domain.is_redundant()),
            Verdict::DomainCrossing { .. } => true,
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Benign => f.write_str("benign"),
            Verdict::SingleDomain(domain) => write!(f, "single-domain({domain})"),
            Verdict::DomainCrossing {
                domains: (a, b),
                class,
            } => {
                write!(f, "domain-crossing({a}x{b}, {class})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(domains: &[Domain]) -> BTreeSet<Domain> {
        domains.iter().copied().collect()
    }

    #[test]
    fn two_redundant_domains_cross() {
        let verdict =
            Verdict::from_affected_domains(&set(&[Domain::Tr0, Domain::Tr2]), FaultClass::Bridge);
        assert_eq!(
            verdict,
            Verdict::DomainCrossing {
                domains: (Domain::Tr0, Domain::Tr2),
                class: FaultClass::Bridge,
            }
        );
        assert!(verdict.may_defeat_tmr());
        assert!(verdict.possibly_observable(true));
    }

    #[test]
    fn least_protected_domain_wins() {
        assert_eq!(
            Verdict::from_affected_domains(&set(&[Domain::Tr1, Domain::Voter]), FaultClass::Open),
            Verdict::SingleDomain(Domain::Voter)
        );
        assert_eq!(
            Verdict::from_affected_domains(
                &set(&[Domain::None, Domain::Voter, Domain::Tr0]),
                FaultClass::Open
            ),
            Verdict::SingleDomain(Domain::None)
        );
        assert_eq!(
            Verdict::from_affected_domains(&set(&[Domain::Tr1]), FaultClass::Open),
            Verdict::SingleDomain(Domain::Tr1)
        );
    }

    #[test]
    fn empty_set_is_benign() {
        let verdict = Verdict::from_affected_domains(&set(&[]), FaultClass::Others);
        assert_eq!(verdict, Verdict::Benign);
        assert!(!verdict.may_defeat_tmr());
        assert!(!verdict.possibly_observable(true));
        assert!(!verdict.possibly_observable(false));
    }

    #[test]
    fn observability_depends_on_the_voting_preconditions() {
        let tr1 = Verdict::SingleDomain(Domain::Tr1);
        assert!(!tr1.possibly_observable(true));
        assert!(tr1.possibly_observable(false));
        let voter = Verdict::SingleDomain(Domain::Voter);
        assert!(voter.possibly_observable(true));
        let none = Verdict::SingleDomain(Domain::None);
        assert!(none.possibly_observable(true));
    }

    #[test]
    fn display_is_stable() {
        assert_eq!(Verdict::Benign.to_string(), "benign");
        assert_eq!(
            Verdict::SingleDomain(Domain::Tr2).to_string(),
            "single-domain(tr2)"
        );
        assert_eq!(
            Verdict::DomainCrossing {
                domains: (Domain::Tr0, Domain::Tr1),
                class: FaultClass::Conflict,
            }
            .to_string(),
            "domain-crossing(tr0xtr1, Conflict)"
        );
    }
}
