//! The sealed program image and the installation report.

use std::collections::BTreeMap;

use sofia_crypto::Nonce;

use crate::decode::{DecodeError, Reader};
use crate::format::BlockFormat;

/// A securely installed program: ciphertext text section, plaintext data,
/// and the public header a SOFIA core needs to execute it (nonce, block
/// format, entry point).
///
/// The image deliberately contains **no key material**; confidentiality
/// and integrity rest entirely on the device keys (paper §II: "these keys
/// are known only by the software provider").
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SecureImage {
    /// The per-program nonce ω (stored in the clear, as in the paper).
    pub nonce: Nonce,
    /// Block geometry used by the installer.
    pub format: BlockFormat,
    /// Base address of the ciphertext text section (block-aligned).
    pub text_base: u32,
    /// Encrypted text: one word per 32-bit block word.
    pub ctext: Vec<u32>,
    /// Base address of the data section.
    pub data_base: u32,
    /// Plaintext data section (SOFIA protects code, not data).
    pub data: Vec<u8>,
    /// The entry target the core jumps to out of reset (with
    /// `prevPC = RESET_PREV_PC`).
    pub entry: u32,
    /// Resolved label addresses, for debugging and the attack harness.
    pub symbols: BTreeMap<String, u32>,
    /// Installation statistics.
    pub report: TransformReport,
}

impl SecureImage {
    /// Size of the encrypted text section in bytes (the paper's §IV-B
    /// code-size metric: 6,976 B plain → 16,816 B transformed for ADPCM).
    pub fn text_bytes(&self) -> usize {
        self.ctext.len() * 4
    }

    /// Number of blocks in the image.
    pub fn blocks(&self) -> usize {
        self.ctext.len() / self.format.block_words()
    }

    /// Serialises the image to a self-describing little-endian byte
    /// stream (magic `SOFI1`).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(b"SOFI1\0");
        push_u32(&mut out, self.nonce.value() as u32);
        push_u32(&mut out, self.format.exec_insts as u32);
        push_u32(&mut out, self.format.store_safe_word_offset as u32);
        push_u32(&mut out, self.text_base);
        push_u32(&mut out, self.entry);
        push_u32(&mut out, self.data_base);
        push_u32(&mut out, self.ctext.len() as u32);
        for w in &self.ctext {
            push_u32(&mut out, *w);
        }
        push_u32(&mut out, self.data.len() as u32);
        out.extend_from_slice(&self.data);
        out
    }

    /// Deserialises an image written by [`SecureImage::to_bytes`].
    ///
    /// Symbols and the report are debug-only and are not serialised; the
    /// loaded image carries empty ones.
    ///
    /// # Errors
    ///
    /// Returns the typed [`DecodeError`] describing the corruption if the
    /// stream is malformed (shared with every other binary container in
    /// the workspace — see [`crate::decode`]).
    pub fn from_bytes(bytes: &[u8]) -> Result<SecureImage, DecodeError> {
        let mut r = Reader::new(bytes);
        r.magic(b"SOFI1\0", "SOFI1")?;
        let nonce = Nonce::new(r.u32()? as u16);
        let format = BlockFormat {
            exec_insts: r.u32()? as usize,
            store_safe_word_offset: r.u32()? as usize,
        };
        format.validate().map_err(|e| DecodeError::BadField {
            field: "format",
            reason: e,
        })?;
        let text_base = r.u32()?;
        let entry = r.u32()?;
        let data_base = r.u32()?;
        let n = r.count("ctext", 4)?;
        let mut ctext = Vec::with_capacity(n);
        for _ in 0..n {
            ctext.push(r.u32()?);
        }
        // The core addresses text words as `text_base + 4·i` in 32 bits:
        // a section reaching past the top of the address space would
        // wrap onto low addresses.
        let text_bytes = u32::try_from(n).ok().and_then(|n| n.checked_mul(4));
        if text_bytes.and_then(|b| text_base.checked_add(b)).is_none() {
            return Err(DecodeError::BadField {
                field: "text_base",
                reason: format!("{n} text words at {text_base:#x} wrap the address space"),
            });
        }
        let dn = r.count("data", 1)?;
        let data = r.take(dn)?.to_vec();
        r.finish()?;
        Ok(SecureImage {
            nonce,
            format,
            text_base,
            ctext,
            data_base,
            data,
            entry,
            symbols: BTreeMap::new(),
            report: TransformReport::default(),
        })
    }
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// What the secure installation did to the program — the data behind the
/// paper's code-size-overhead numbers and the Fig. 9 scaling experiment.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TransformReport {
    /// Instructions in the source module, before lowering.
    pub source_instructions: usize,
    /// Instructions after indirect-dispatch lowering and single-exit
    /// normalisation.
    pub lowered_instructions: usize,
    /// Total blocks emitted.
    pub blocks: usize,
    /// Execution blocks.
    pub exec_blocks: usize,
    /// Multiplexor blocks (including tree nodes).
    pub mux_blocks: usize,
    /// Multiplexor-tree trampolines among the mux blocks (Fig. 9).
    pub tree_blocks: usize,
    /// Fall-through-conversion trampoline blocks.
    pub ft_trampolines: usize,
    /// Return landing pads.
    pub landing_pads: usize,
    /// `nop` padding instructions inserted.
    pub pad_nops: usize,
    /// Source text size in bytes.
    pub text_bytes_in: usize,
    /// Sealed text size in bytes.
    pub text_bytes_out: usize,
}

impl TransformReport {
    /// Code-size expansion factor (paper: 16,816 / 6,976 ≈ 2.41× for
    /// ADPCM).
    pub fn expansion(&self) -> f64 {
        if self.text_bytes_in == 0 {
            0.0
        } else {
            self.text_bytes_out as f64 / self.text_bytes_in as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_expansion() {
        let r = TransformReport {
            text_bytes_in: 6976,
            text_bytes_out: 16816,
            ..Default::default()
        };
        assert!((r.expansion() - 2.4106).abs() < 1e-3);
        assert_eq!(TransformReport::default().expansion(), 0.0);
    }

    #[test]
    fn image_serialisation_roundtrip() {
        let img = SecureImage {
            nonce: Nonce::new(77),
            format: BlockFormat::default(),
            text_base: 0x100,
            ctext: vec![1, 2, 3, 0xDEAD_BEEF],
            data_base: 0x1000_0000,
            data: vec![9, 8, 7],
            entry: 0x104,
            symbols: BTreeMap::new(),
            report: TransformReport::default(),
        };
        let bytes = img.to_bytes();
        let back = SecureImage::from_bytes(&bytes).unwrap();
        assert_eq!(back.nonce, img.nonce);
        assert_eq!(back.ctext, img.ctext);
        assert_eq!(back.data, img.data);
        assert_eq!(back.entry, img.entry);
    }

    #[test]
    fn text_section_wrapping_the_address_space_is_refused() {
        let img = |text_base: u32, words: usize| SecureImage {
            nonce: Nonce::new(1),
            format: BlockFormat::default(),
            text_base,
            ctext: vec![0; words],
            data_base: 0x1000_0000,
            data: vec![],
            entry: text_base,
            symbols: BTreeMap::new(),
            report: TransformReport::default(),
        };
        for (base, words) in [(0xFFFF_FFF0, 8), (0xFFFF_FFE0, 8)] {
            assert!(matches!(
                SecureImage::from_bytes(&img(base, words).to_bytes()),
                Err(DecodeError::BadField {
                    field: "text_base",
                    ..
                })
            ));
        }
        // A section whose end is still a 32-bit address is accepted.
        assert!(SecureImage::from_bytes(&img(0xFFFF_FFE0, 7).to_bytes()).is_ok());
    }

    #[test]
    fn corrupt_streams_rejected() {
        assert_eq!(
            SecureImage::from_bytes(b"BOGUS!").unwrap_err(),
            DecodeError::BadMagic { expected: "SOFI1" }
        );
        let img = SecureImage {
            nonce: Nonce::new(1),
            format: BlockFormat::default(),
            text_base: 0x100,
            ctext: vec![1],
            data_base: 0x1000_0000,
            data: vec![],
            entry: 0x100,
            symbols: BTreeMap::new(),
            report: TransformReport::default(),
        };
        let mut bytes = img.to_bytes();
        bytes.truncate(bytes.len() - 2);
        assert!(matches!(
            SecureImage::from_bytes(&bytes).unwrap_err(),
            DecodeError::Truncated { .. } | DecodeError::BadLength { .. }
        ));
        let mut extra = img.to_bytes();
        extra.push(0);
        assert_eq!(
            SecureImage::from_bytes(&extra).unwrap_err(),
            DecodeError::TrailingBytes { extra: 1 }
        );
    }
}
