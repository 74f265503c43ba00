"""Hybrid (gshare + local + metapredictor) branch predictor.

One class owns every table as a flat list of two-bit counters (0..3, taken
when >= 2) or histories: the gshare table and its global history register,
the local pattern history table (PHT, per-branch histories) and branch
history table (BHT, counters indexed by a local history), and the meta table
choosing between the two components.  ``predict_and_update`` computes each
index once, predicts and trains every table in one call.
"""

from __future__ import annotations

from repro.timing.tables import BranchPredictorGeometry


class HybridPredictor:
    """McFarling-style combining predictor.

    A metapredictor table of two-bit counters (indexed like the gshare
    component) selects, per branch, whether the gshare or the local component
    supplies the prediction.  Both components are always trained; the
    metapredictor is trained toward whichever component was correct when they
    disagree.

    The gshare component XORs the branch's word address with the global
    history to index its table.  The local component keeps a
    ``local_history_bits``-wide history per branch in the PHT, and that
    history indexes the BHT.
    """

    def __init__(self, geometry: BranchPredictorGeometry) -> None:
        for name in (
            "gshare_entries",
            "meta_entries",
            "local_bht_entries",
            "local_pht_entries",
        ):
            entries = getattr(geometry, name)
            if entries <= 0 or entries & (entries - 1):
                raise ValueError(f"{name} must be a power of two, got {entries}")
        for name in ("global_history_bits", "local_history_bits"):
            if getattr(geometry, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        self.geometry = geometry
        self._history = 0
        self._history_mask = (1 << geometry.global_history_bits) - 1
        self._gshare = [1] * geometry.gshare_entries
        self._gshare_mask = geometry.gshare_entries - 1
        self._local_history_mask = (1 << geometry.local_history_bits) - 1
        self._pht = [0] * geometry.local_pht_entries
        self._pht_mask = geometry.local_pht_entries - 1
        self._bht = [1] * geometry.local_bht_entries
        self._bht_mask = geometry.local_bht_entries - 1
        # Meta counter >= 2 selects the gshare component.
        self._meta = [2] * geometry.meta_entries
        self._meta_mask = geometry.meta_entries - 1

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        """Predict *pc*, then train every table with the real outcome.

        Returns True when the prediction was correct.
        """
        word = pc >> 2
        history = self._history
        global_index = word ^ history
        gshare = self._gshare
        gshare_index = global_index & self._gshare_mask
        gshare_counter = gshare[gshare_index]
        pht = self._pht
        pht_index = word & self._pht_mask
        local_history = pht[pht_index]
        bht = self._bht
        bht_index = local_history & self._bht_mask
        local_counter = bht[bht_index]
        gshare_prediction = gshare_counter >= 2
        local_prediction = local_counter >= 2
        meta = self._meta
        meta_index = global_index & self._meta_mask
        meta_counter = meta[meta_index]
        prediction = gshare_prediction if meta_counter >= 2 else local_prediction

        # Train the metapredictor only when the components disagree.
        if gshare_prediction != local_prediction:
            if gshare_prediction == taken:
                if meta_counter < 3:
                    meta[meta_index] = meta_counter + 1
            elif meta_counter > 0:
                meta[meta_index] = meta_counter - 1

        if taken:
            if local_counter < 3:
                bht[bht_index] = local_counter + 1
            if gshare_counter < 3:
                gshare[gshare_index] = gshare_counter + 1
        else:
            if local_counter > 0:
                bht[bht_index] = local_counter - 1
            if gshare_counter > 0:
                gshare[gshare_index] = gshare_counter - 1
        pht[pht_index] = ((local_history << 1) | taken) & self._local_history_mask
        self._history = ((history << 1) | taken) & self._history_mask
        return prediction == taken


def build_predictor(geometry: BranchPredictorGeometry) -> HybridPredictor:
    """Construct the hybrid predictor for one front-end configuration."""
    return HybridPredictor(geometry)
