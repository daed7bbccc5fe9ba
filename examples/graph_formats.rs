//! Round-trip a coalescing instance through the textual challenge format.
//!
//! The Appel–George coalescing challenge distributes its instances as text
//! files; this example shows the equivalent workflow with this library:
//! generate a challenge-style instance, serialise it (interferences,
//! weighted affinities and the register count), parse it back, and run the
//! coalescing strategies on the parsed copy.
//!
//! ```text
//! cargo run --example graph_formats
//! ```

use coalesce_core::affinity::{Affinity, AffinityGraph};
use coalesce_core::conservative::{conservative_coalesce, ConservativeRule};
use coalesce_core::optimistic::optimistic_coalesce;
use coalesce_gen::challenge::{challenge_instance, ChallengeParams};
use coalesce_graph::format::{from_challenge, to_challenge, ChallengeFile};
use coalesce_graph::{chordal, greedy};

fn main() {
    let params = ChallengeParams::default();
    let mut rng = coalesce_gen::rng(7);
    let instance = challenge_instance(&params, &mut rng);

    // Serialise the instance.
    let file = ChallengeFile {
        graph: instance.affinity_graph.graph.clone(),
        affinities: instance
            .affinity_graph
            .affinities
            .iter()
            .map(|a| (a.a, a.b, a.weight))
            .collect(),
        registers: Some(instance.registers),
    };
    let text = to_challenge(&file);
    println!(
        "serialised instance: {} lines, {} interferences, {} affinities",
        text.lines().count(),
        file.graph.num_edges(),
        file.affinities.len()
    );

    // Parse it back and rebuild the affinity graph.
    let parsed = from_challenge(&text).expect("the writer always produces parseable output");
    assert_eq!(parsed.graph.num_edges(), file.graph.num_edges());
    assert_eq!(parsed.affinities.len(), file.affinities.len());
    let affinities = parsed
        .affinities
        .iter()
        .map(|&(a, b, w)| Affinity::weighted(a, b, w))
        .collect();
    let ag = AffinityGraph::new(parsed.graph.clone(), affinities);
    let k = parsed.registers.expect("the writer recorded k");

    println!(
        "structure: {} vertices, {} edges, chordal: {}, col(G) = {}, k = {k}",
        ag.graph.num_vertices(),
        ag.graph.num_edges(),
        chordal::is_chordal(&ag.graph),
        greedy::coloring_number(&ag.graph)
    );

    // Run the strategies on the parsed copy.
    for rule in [
        ConservativeRule::Briggs,
        ConservativeRule::BriggsGeorge,
        ConservativeRule::ExtendedGeorge,
        ConservativeRule::BruteForce,
    ] {
        let res = conservative_coalesce(&ag, k, rule);
        println!(
            "{rule:?}: coalesced {}/{} affinities (weight {}/{})",
            res.stats.coalesced,
            ag.num_affinities(),
            res.stats.coalesced_weight,
            ag.total_weight()
        );
    }
    let optimistic = optimistic_coalesce(&ag, k);
    println!(
        "Optimistic: coalesced {}/{} affinities (weight {}/{})",
        optimistic.stats.coalesced,
        ag.num_affinities(),
        optimistic.stats.coalesced_weight,
        ag.total_weight()
    );
}
