//! Errors raised by the secure installer.

use std::error::Error;
use std::fmt;

use sofia_cfg::CfgError;
use sofia_isa::AsmError;

/// Why a module could not be transformed into a secure image.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransformError {
    /// The control flow of the program could not be modelled precisely
    /// (paper §II-D: such programs "cannot be addressed by our methods").
    Cfg(CfgError),
    /// A relocation could not be resolved after layout (branch out of
    /// range, jump out of region, undefined label).
    Layout(AsmError),
    /// An indirect call links a register other than `ra`; the lowering to
    /// direct-dispatch ladders cannot preserve that.
    IndirectLinksNonRa {
        /// Source line of the `jalr`.
        line: usize,
    },
    /// An indirect transfer dispatches on the transformer's reserved
    /// scratch register `k0`.
    ScratchRegisterClash {
        /// Source line.
        line: usize,
    },
    /// The data section does not fit in the data RAM the program is
    /// sealed for; refused before the section is allocated.
    DataTooLarge {
        /// Length of the laid-out data section.
        bytes: u32,
        /// The target's data RAM size.
        ram_size: u32,
    },
    /// An invalid [`crate::BlockFormat`].
    BadFormat(String),
    /// The program is empty.
    EmptyProgram,
}

impl fmt::Display for TransformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransformError::Cfg(e) => write!(f, "control flow not analysable: {e}"),
            TransformError::Layout(e) => write!(f, "layout failed: {e}"),
            TransformError::IndirectLinksNonRa { line } => {
                write!(
                    f,
                    "line {line}: jalr must link through ra to be transformable"
                )
            }
            TransformError::ScratchRegisterClash { line } => {
                write!(
                    f,
                    "line {line}: indirect transfer uses reserved scratch register k0"
                )
            }
            TransformError::DataTooLarge { bytes, ram_size } => write!(
                f,
                "data section of {bytes} bytes exceeds the {ram_size}-byte RAM"
            ),
            TransformError::BadFormat(msg) => write!(f, "invalid block format: {msg}"),
            TransformError::EmptyProgram => write!(f, "program has no instructions"),
        }
    }
}

impl Error for TransformError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TransformError::Cfg(e) => Some(e),
            TransformError::Layout(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CfgError> for TransformError {
    fn from(e: CfgError) -> Self {
        TransformError::Cfg(e)
    }
}

impl From<AsmError> for TransformError {
    fn from(e: AsmError) -> Self {
        TransformError::Layout(e)
    }
}
