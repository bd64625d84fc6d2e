/**
 * @file
 * Independent oracles for the round-packing DP (packers/dp_packer.h).
 *
 * Neither function is used by the serving path; they exist so tests
 * can pin the production flat-arena DP (packers::PackRoundInto)
 * against implementations that share none of its storage:
 *
 *  - PackRoundReference: the seed vector-of-vectors DP, with its three
 *    (G+1)x(C+1) tables allocated per call. Same update order and the
 *    same comparator as the production DP, so results agree bit for
 *    bit — choices and accumulated work alike.
 *  - PackRoundExhaustive: every choice combination, scored with the
 *    shared comparator. Exponential; small instances only.
 */
#ifndef TETRI_ORACLE_PACKING_H
#define TETRI_ORACLE_PACKING_H

#include <vector>

#include "packers/dp_packer.h"

namespace tetri::oracle {

/** The seed nested-vector group-knapsack DP. */
packers::PackResult PackRoundReference(
    const std::vector<packers::PackGroup>& groups, int capacity);

/** Exhaustive enumeration of every packing; exponential. */
packers::PackResult PackRoundExhaustive(
    const std::vector<packers::PackGroup>& groups, int capacity);

}  // namespace tetri::oracle

#endif  // TETRI_ORACLE_PACKING_H
