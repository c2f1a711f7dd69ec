/**
 * @file
 * Test helper: collect the link ids InterconnectModel's emission helpers
 * (unicastLinks, multicastLinks) hand out into a TrafficMap, so tests can
 * read per-link loads by (from, to).
 */

#ifndef GEMINI_TESTS_LINK_TRAFFIC_HH
#define GEMINI_TESTS_LINK_TRAFFIC_HH

#include "src/noc/interconnect.hh"
#include "src/noc/traffic_map.hh"

namespace gemini::noc {

/** An emit callback that adds `bytes` to `map` on every emitted link. */
inline auto
addTo(TrafficMap &map, const InterconnectModel &noc, double bytes)
{
    return [&map, &noc, bytes](LinkId id) {
        map.addLink(noc.linkAt(id), bytes);
    };
}

} // namespace gemini::noc

#endif // GEMINI_TESTS_LINK_TRAFFIC_HH
