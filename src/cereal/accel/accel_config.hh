/**
 * @file
 * Configuration of the Cereal accelerator (paper Table I, Section V).
 */

#ifndef CEREAL_CEREAL_ACCEL_ACCEL_CONFIG_HH
#define CEREAL_CEREAL_ACCEL_ACCEL_CONFIG_HH

#include "sim/types.hh"

namespace cereal {

/** Hardware parameters of one Cereal instance. */
struct AccelConfig
{
    /** Accelerator clock, MHz (40 nm synthesis target). */
    double freqMHz = 1000;

    /** Serialization units (Table I: 8). */
    unsigned numSU = 8;
    /** Deserialization units (Table I: 8). */
    unsigned numDU = 8;
    /** Block reconstructors per DU (Section VI-A: 4). */
    unsigned blockReconstructors = 4;

    /** MAI outstanding-request entries (Table I: 64). */
    unsigned maiEntries = 64;
    /** TLB entries (Table I: 128). */
    unsigned tlbEntries = 128;
    /** Page size: 1 GB huge pages (Section V-E). */
    Addr pageBytes = Addr{1} << 30;
    /** Cycles lost on a TLB miss (page-walk through host MMU). */
    Cycles tlbMissPenalty = 120;

    // --- Serialization Unit micro-parameters ---------------------------

    /** Header-manager cycles per reference processed (visit check +
     *  relative-address bookkeeping). */
    Cycles hmPerRef = 2;
    /** Object-metadata-manager cycles per object (bitmap generation). */
    Cycles ommPerObject = 2;
    /** Object-handler cycles per 8 B slot (value/ref steering). */
    Cycles ohPerSlot = 1;
    /** Reference-array-writer cycles per packed reference. */
    Cycles rawPerRef = 1;
    /** OMM metadata cache entries (klass descriptors are few and hot). */
    unsigned metadataCacheEntries = 64;

    // --- Deserialization Unit micro-parameters --------------------------

    /** Layout-manager cycles per 8-bit bitmap chunk (unpack+popcount
     *  are single-cycle custom logic per the paper). */
    Cycles lmPerBlock = 1;
    /** Block-manager cycles per dispatched block. */
    Cycles bmPerBlock = 1;
    /** Block-reconstructor occupancy per 64 B block. */
    Cycles brPerBlock = 4;
    /** Per-stream prefetch buffer depth, in 64 B chunks. */
    unsigned prefetchDepth = 8;

    /**
     * Ablation switch ("Cereal Vanilla", Figure 10): disable
     * fine-grained parallelism — no header prefetch in the SU, a single
     * block reconstructor and depth-1 prefetch in the DU. Operation-
     * level parallelism (multiple units) is retained.
     */
    bool pipelined = true;

    /** Clock period in ticks. */
    Tick period() const { return periodFromMHz(freqMHz); }
};

} // namespace cereal

#endif // CEREAL_CEREAL_ACCEL_ACCEL_CONFIG_HH
