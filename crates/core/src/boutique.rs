//! The Online Boutique workload (§4.3).
//!
//! Ten microservice functions and the three chains the paper evaluates
//! ('Home Query', 'ViewCart', 'Product Query'), "each of which incur more
//! than 11 data exchanges between functions", plus the two short chains
//! the trace-replay and observability examples mix in. The application's
//! checkout chain is not modelled: no figure or example drives it, though
//! its functions are placed like the other seven. The frontend re-enters the
//! chain between downstream calls, as in the real application's call
//! graph. Placement follows the paper: the potential hotspot functions
//! (Frontend, Checkout, Recommendation) on one node, everything else on
//! the second node.

use membuf::tenant::TenantId;
use runtime::ChainSpec;
use simcore::SimDuration;

/// Function identifiers of the ten Online Boutique services.
pub mod fns {
    pub const FRONTEND: u16 = 1;
    pub const PRODUCT_CATALOG: u16 = 2;
    pub const CURRENCY: u16 = 3;
    pub const CART: u16 = 4;
    pub const RECOMMENDATION: u16 = 5;
    pub const AD: u16 = 6;
    pub const SHIPPING: u16 = 7;
    pub const CHECKOUT: u16 = 8;
    pub const PAYMENT: u16 = 9;
    pub const EMAIL: u16 = 10;
}

/// All ten function ids.
pub fn all_functions() -> [u16; 10] {
    [
        fns::FRONTEND,
        fns::PRODUCT_CATALOG,
        fns::CURRENCY,
        fns::CART,
        fns::RECOMMENDATION,
        fns::AD,
        fns::SHIPPING,
        fns::CHECKOUT,
        fns::PAYMENT,
        fns::EMAIL,
    ]
}

/// The Home Query chain: frontend fans out to currency, product catalog,
/// cart, recommendation (which itself consults the catalog) and ads —
/// 12 inter-function exchanges.
pub fn home_query(tenant: TenantId) -> ChainSpec {
    use fns::*;
    ChainSpec::new(
        "Home Query",
        tenant,
        vec![
            FRONTEND,
            CURRENCY,
            FRONTEND,
            PRODUCT_CATALOG,
            FRONTEND,
            CART,
            FRONTEND,
            RECOMMENDATION,
            PRODUCT_CATALOG,
            RECOMMENDATION,
            FRONTEND,
            AD,
            FRONTEND,
        ],
    )
}

/// The ViewCart chain: cart contents, recommendations, shipping estimate
/// and currency conversion — 12 exchanges.
pub fn view_cart(tenant: TenantId) -> ChainSpec {
    use fns::*;
    ChainSpec::new(
        "View Cart",
        tenant,
        vec![
            FRONTEND,
            CART,
            FRONTEND,
            RECOMMENDATION,
            PRODUCT_CATALOG,
            RECOMMENDATION,
            FRONTEND,
            SHIPPING,
            FRONTEND,
            CURRENCY,
            FRONTEND,
            CART,
            FRONTEND,
        ],
    )
}

/// The Product Query chain: product lookup, currency conversion, cart
/// check, recommendations and ads — 12 exchanges.
pub fn product_query(tenant: TenantId) -> ChainSpec {
    use fns::*;
    ChainSpec::new(
        "Product Query",
        tenant,
        vec![
            FRONTEND,
            PRODUCT_CATALOG,
            FRONTEND,
            CURRENCY,
            FRONTEND,
            CART,
            FRONTEND,
            RECOMMENDATION,
            PRODUCT_CATALOG,
            RECOMMENDATION,
            FRONTEND,
            AD,
            FRONTEND,
        ],
    )
}

/// The three chains of Fig. 16 / Table 2.
pub fn evaluation_chains(tenant: TenantId) -> [ChainSpec; 3] {
    [home_query(tenant), view_cart(tenant), product_query(tenant)]
}

/// The add-to-cart chain: product lookup then a cart update — 6 exchanges.
pub fn add_to_cart(tenant: TenantId) -> ChainSpec {
    use fns::*;
    ChainSpec::new(
        "Add To Cart",
        tenant,
        vec![
            FRONTEND,
            PRODUCT_CATALOG,
            FRONTEND,
            CART,
            FRONTEND,
            CURRENCY,
            FRONTEND,
        ],
    )
}

/// The ad-serving chain: contextual ads with a catalog lookup — 5 exchanges.
pub fn serve_ads(tenant: TenantId) -> ChainSpec {
    use fns::*;
    ChainSpec::new(
        "Serve Ads",
        tenant,
        vec![FRONTEND, AD, PRODUCT_CATALOG, AD, FRONTEND],
    )
}

/// Reference execution cost of one invocation of each function.
///
/// Values are chosen so a Home Query totals ≈ 1 ms of function work,
/// matching Table 2's ≈ 1.1 ms NADINO (DNE) latency at light load.
pub fn exec_cost(f: u16) -> SimDuration {
    let us = match f {
        fns::FRONTEND => 60,
        fns::PRODUCT_CATALOG => 45,
        fns::CURRENCY => 50,
        fns::CART => 60,
        fns::RECOMMENDATION => 55,
        fns::AD => 40,
        fns::SHIPPING => 55,
        fns::CHECKOUT => 80,
        fns::PAYMENT => 70,
        fns::EMAIL => 40,
        _ => 50,
    };
    SimDuration::from_micros(us)
}

/// Hotspot placement (§4.3): Frontend, Checkout and Recommendation on
/// node 0; the remaining functions on node 1. Returns the node index.
pub fn hotspot_placement(f: u16) -> usize {
    match f {
        fns::FRONTEND | fns::CHECKOUT | fns::RECOMMENDATION => 0,
        _ => 1,
    }
}

/// Typical request payload in bytes (small JSON-ish messages).
pub const PAYLOAD_BYTES: usize = 512;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chains_have_more_than_11_exchanges() {
        for chain in evaluation_chains(TenantId(1)) {
            assert!(
                chain.exchanges() >= 11,
                "{} has only {} exchanges",
                chain.name,
                chain.exchanges()
            );
        }
    }

    #[test]
    fn chains_start_and_end_at_the_frontend() {
        for chain in evaluation_chains(TenantId(1)) {
            assert_eq!(chain.entry(), fns::FRONTEND);
            assert_eq!(chain.exit(), fns::FRONTEND);
        }
    }

    #[test]
    fn chains_cross_the_node_boundary_repeatedly() {
        for chain in evaluation_chains(TenantId(1)) {
            let crossings = chain
                .hops
                .windows(2)
                .filter(|w| hotspot_placement(w[0]) != hotspot_placement(w[1]))
                .count();
            assert!(
                crossings >= 6,
                "{} only crosses nodes {crossings} times",
                chain.name
            );
        }
    }

    #[test]
    fn home_query_function_work_is_about_a_millisecond() {
        let chain = home_query(TenantId(1));
        let total: u64 = chain.hops.iter().map(|&f| exec_cost(f).as_nanos()).sum();
        let ms = total as f64 / 1_000_000.0;
        assert!((0.6..=1.2).contains(&ms), "total exec = {ms}ms");
    }

    #[test]
    fn the_short_chains_are_well_formed() {
        let t = TenantId(1);
        for chain in [add_to_cart(t), serve_ads(t)] {
            assert_eq!(chain.entry(), fns::FRONTEND);
            assert_eq!(chain.exit(), fns::FRONTEND);
            assert!(chain.exchanges() >= 4);
        }
    }

    #[test]
    fn every_function_has_a_cost() {
        for f in all_functions() {
            assert!(exec_cost(f) > SimDuration::ZERO);
        }
    }
}
