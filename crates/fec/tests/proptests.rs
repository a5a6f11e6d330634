//! Property-based tests of the erasure code: the MDS property must hold
//! for arbitrary geometries, shard contents and erasure patterns.

use proptest::collection::vec;
use proptest::prelude::*;

use gossip_fec::{FecError, ReedSolomon, WindowDecoder, WindowEncoder, WindowParams};

/// Strategy: a small but arbitrary code geometry.
fn geometry() -> impl Strategy<Value = (usize, usize)> {
    (1usize..24, 0usize..10)
}

proptest! {
    /// Any k of the k+r shards reconstruct the original data exactly.
    #[test]
    fn reconstructs_from_any_k_shards(
        (k, r) in geometry(),
        shard_len in 1usize..64,
        seed in any::<u64>(),
    ) {
        let rs = ReedSolomon::new(k, r).expect("valid geometry");
        let data: Vec<Vec<u8>> = (0..k)
            .map(|i| (0..shard_len).map(|j| ((seed as usize + i * 31 + j * 7) % 256) as u8).collect())
            .collect();
        let parity = rs.encode(&data).expect("encodes");
        let full: Vec<Vec<u8>> = data.iter().cloned().chain(parity).collect();

        // Derive an erasure pattern of exactly r shards from the seed.
        let total = k + r;
        let mut erase: Vec<usize> = (0..total).collect();
        let mut state = seed;
        for i in (1..erase.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            erase.swap(i, j);
        }
        erase.truncate(r);

        let mut shards: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
        for &e in &erase {
            shards[e] = None;
        }
        rs.reconstruct(&mut shards).expect("r erasures are recoverable");
        for (i, shard) in shards.iter().enumerate() {
            prop_assert_eq!(shard.as_ref().expect("filled"), &full[i]);
        }
    }

    /// One erasure beyond the budget always fails cleanly with
    /// `TooFewShards` — never a wrong answer, never a panic.
    #[test]
    fn too_many_erasures_always_fail(
        (k, r) in (2usize..16, 0usize..8),
        shard_len in 1usize..32,
    ) {
        let rs = ReedSolomon::new(k, r).expect("valid geometry");
        let data: Vec<Vec<u8>> = (0..k).map(|i| vec![i as u8; shard_len]).collect();
        let parity = rs.encode(&data).expect("encodes");
        let mut shards: Vec<Option<Vec<u8>>> =
            data.into_iter().chain(parity).map(Some).collect();
        for slot in shards.iter_mut().take(r + 1) {
            *slot = None;
        }
        let err = rs.reconstruct(&mut shards).unwrap_err();
        let is_too_few = matches!(err, FecError::TooFewShards { .. });
        prop_assert!(is_too_few, "expected TooFewShards, got {err:?}");
    }

    /// Parity is a linear function of the data: encoding the XOR of two
    /// window contents equals the XOR of their parities (characteristic-2
    /// linearity — a strong algebraic invariant of the implementation).
    #[test]
    fn parity_is_linear(
        (k, r) in (1usize..12, 1usize..6),
        a in vec(any::<u8>(), 1..32),
    ) {
        let shard_len = a.len();
        let rs = ReedSolomon::new(k, r).expect("valid geometry");
        let da: Vec<Vec<u8>> = (0..k).map(|i| a.iter().map(|&x| x.wrapping_add(i as u8)).collect()).collect();
        let db: Vec<Vec<u8>> = (0..k).map(|i| a.iter().map(|&x| x.wrapping_mul(3).wrapping_add(i as u8)).collect()).collect();
        let dxor: Vec<Vec<u8>> = da
            .iter()
            .zip(&db)
            .map(|(ra, rb)| ra.iter().zip(rb).map(|(x, y)| x ^ y).collect())
            .collect();
        let pa = rs.encode(&da).expect("encodes");
        let pb = rs.encode(&db).expect("encodes");
        let pxor = rs.encode(&dxor).expect("encodes");
        for i in 0..r {
            let manual: Vec<u8> = pa[i].iter().zip(&pb[i]).map(|(x, y)| x ^ y).collect();
            prop_assert_eq!(&pxor[i], &manual, "parity row {} not linear (len {})", i, shard_len);
        }
    }

    /// The window decoder agrees with the raw codec for any subset of
    /// received packets.
    #[test]
    fn window_decoder_matches_codec(
        received_mask in vec(any::<bool>(), 14),
        seed in any::<u64>(),
    ) {
        let params = WindowParams::new(10, 4);
        let enc = WindowEncoder::new(params).expect("valid");
        let data: Vec<Vec<u8>> =
            (0..10).map(|i| (0..8).map(|j| ((seed as usize + i * 13 + j) % 256) as u8).collect()).collect();
        let parity = enc.encode(&data).expect("encodes");
        let full: Vec<Vec<u8>> = data.iter().cloned().chain(parity).collect();

        let mut dec = WindowDecoder::new(params).expect("valid");
        let mut received = 0;
        for (i, &keep) in received_mask.iter().enumerate() {
            if keep {
                dec.receive(i, full[i].clone());
                received += 1;
            }
        }
        prop_assert_eq!(dec.is_decodable(), received >= 10);
        if received >= 10 {
            let out = dec.reconstruct().expect("decodable");
            prop_assert_eq!(out, data);
        }
    }
}
