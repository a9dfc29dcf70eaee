//! The EVM instruction set.
//!
//! Every opcode of the (pre-Cancun) Ethereum virtual machine, with the
//! metadata SigRec's analyses need: mnemonic, stack arity (items consumed and
//! produced), and classification predicates (push, dup, swap, terminator,
//! calldata access, …).

use std::fmt;

/// An EVM opcode.
///
/// `PUSH1`–`PUSH32`, `DUP1`–`DUP16`, and `SWAP1`–`SWAP16` are folded into
/// parametrised variants; every other opcode is its own variant. Unassigned
/// byte values decode to [`Opcode::Invalid`] carrying the raw byte, so a
/// disassembly always round-trips.
///
/// Plain variants are the standard EVM mnemonics (see the Yellow Paper);
/// only the parametrised ones carry extra meaning and are documented.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[allow(missing_docs)]
pub enum Opcode {
    Stop,
    Add,
    Mul,
    Sub,
    Div,
    SDiv,
    Mod,
    SMod,
    AddMod,
    MulMod,
    Exp,
    SignExtend,
    Lt,
    Gt,
    SLt,
    SGt,
    Eq,
    IsZero,
    And,
    Or,
    Xor,
    Not,
    Byte,
    Shl,
    Shr,
    Sar,
    Keccak256,
    Address,
    Balance,
    Origin,
    Caller,
    CallValue,
    CallDataLoad,
    CallDataSize,
    CallDataCopy,
    CodeSize,
    CodeCopy,
    GasPrice,
    ExtCodeSize,
    ExtCodeCopy,
    ReturnDataSize,
    ReturnDataCopy,
    ExtCodeHash,
    BlockHash,
    Coinbase,
    Timestamp,
    Number,
    Difficulty,
    GasLimit,
    ChainId,
    SelfBalance,
    BaseFee,
    Pop,
    MLoad,
    MStore,
    MStore8,
    SLoad,
    SStore,
    Jump,
    JumpI,
    Pc,
    MSize,
    Gas,
    JumpDest,
    /// `PUSH1`..=`PUSH32`; the payload is the number of immediate bytes (1–32).
    Push(u8),
    /// `DUP1`..=`DUP16`; the payload is the duplicated stack depth (1–16).
    Dup(u8),
    /// `SWAP1`..=`SWAP16`; the payload is the swapped stack depth (1–16).
    Swap(u8),
    /// `LOG0`..=`LOG4`; the payload is the topic count (0–4).
    Log(u8),
    Create,
    Call,
    CallCode,
    Return,
    DelegateCall,
    Create2,
    StaticCall,
    Revert,
    SelfDestruct,
    /// `0xfe` (designated invalid) or any unassigned byte value.
    Invalid(u8),
}

impl Opcode {
    /// Decodes a single byte into an opcode.
    pub const fn from_byte(b: u8) -> Opcode {
        use Opcode::*;
        match b {
            0x00 => Stop,
            0x01 => Add,
            0x02 => Mul,
            0x03 => Sub,
            0x04 => Div,
            0x05 => SDiv,
            0x06 => Mod,
            0x07 => SMod,
            0x08 => AddMod,
            0x09 => MulMod,
            0x0a => Exp,
            0x0b => SignExtend,
            0x10 => Lt,
            0x11 => Gt,
            0x12 => SLt,
            0x13 => SGt,
            0x14 => Eq,
            0x15 => IsZero,
            0x16 => And,
            0x17 => Or,
            0x18 => Xor,
            0x19 => Not,
            0x1a => Byte,
            0x1b => Shl,
            0x1c => Shr,
            0x1d => Sar,
            0x20 => Keccak256,
            0x30 => Address,
            0x31 => Balance,
            0x32 => Origin,
            0x33 => Caller,
            0x34 => CallValue,
            0x35 => CallDataLoad,
            0x36 => CallDataSize,
            0x37 => CallDataCopy,
            0x38 => CodeSize,
            0x39 => CodeCopy,
            0x3a => GasPrice,
            0x3b => ExtCodeSize,
            0x3c => ExtCodeCopy,
            0x3d => ReturnDataSize,
            0x3e => ReturnDataCopy,
            0x3f => ExtCodeHash,
            0x40 => BlockHash,
            0x41 => Coinbase,
            0x42 => Timestamp,
            0x43 => Number,
            0x44 => Difficulty,
            0x45 => GasLimit,
            0x46 => ChainId,
            0x47 => SelfBalance,
            0x48 => BaseFee,
            0x50 => Pop,
            0x51 => MLoad,
            0x52 => MStore,
            0x53 => MStore8,
            0x54 => SLoad,
            0x55 => SStore,
            0x56 => Jump,
            0x57 => JumpI,
            0x58 => Pc,
            0x59 => MSize,
            0x5a => Gas,
            0x5b => JumpDest,
            0x60..=0x7f => Push(b - 0x5f),
            0x80..=0x8f => Dup(b - 0x7f),
            0x90..=0x9f => Swap(b - 0x8f),
            0xa0..=0xa4 => Log(b - 0xa0),
            0xf0 => Create,
            0xf1 => Call,
            0xf2 => CallCode,
            0xf3 => Return,
            0xf4 => DelegateCall,
            0xf5 => Create2,
            0xfa => StaticCall,
            0xfd => Revert,
            0xff => SelfDestruct,
            other => Invalid(other),
        }
    }

    /// Encodes the opcode back to its byte value.
    pub fn to_byte(self) -> u8 {
        use Opcode::*;
        match self {
            Stop => 0x00,
            Add => 0x01,
            Mul => 0x02,
            Sub => 0x03,
            Div => 0x04,
            SDiv => 0x05,
            Mod => 0x06,
            SMod => 0x07,
            AddMod => 0x08,
            MulMod => 0x09,
            Exp => 0x0a,
            SignExtend => 0x0b,
            Lt => 0x10,
            Gt => 0x11,
            SLt => 0x12,
            SGt => 0x13,
            Eq => 0x14,
            IsZero => 0x15,
            And => 0x16,
            Or => 0x17,
            Xor => 0x18,
            Not => 0x19,
            Byte => 0x1a,
            Shl => 0x1b,
            Shr => 0x1c,
            Sar => 0x1d,
            Keccak256 => 0x20,
            Address => 0x30,
            Balance => 0x31,
            Origin => 0x32,
            Caller => 0x33,
            CallValue => 0x34,
            CallDataLoad => 0x35,
            CallDataSize => 0x36,
            CallDataCopy => 0x37,
            CodeSize => 0x38,
            CodeCopy => 0x39,
            GasPrice => 0x3a,
            ExtCodeSize => 0x3b,
            ExtCodeCopy => 0x3c,
            ReturnDataSize => 0x3d,
            ReturnDataCopy => 0x3e,
            ExtCodeHash => 0x3f,
            BlockHash => 0x40,
            Coinbase => 0x41,
            Timestamp => 0x42,
            Number => 0x43,
            Difficulty => 0x44,
            GasLimit => 0x45,
            ChainId => 0x46,
            SelfBalance => 0x47,
            BaseFee => 0x48,
            Pop => 0x50,
            MLoad => 0x51,
            MStore => 0x52,
            MStore8 => 0x53,
            SLoad => 0x54,
            SStore => 0x55,
            Jump => 0x56,
            JumpI => 0x57,
            Pc => 0x58,
            MSize => 0x59,
            Gas => 0x5a,
            JumpDest => 0x5b,
            Push(n) => 0x5f + n,
            Dup(n) => 0x7f + n,
            Swap(n) => 0x8f + n,
            Log(n) => 0xa0 + n,
            Create => 0xf0,
            Call => 0xf1,
            CallCode => 0xf2,
            Return => 0xf3,
            DelegateCall => 0xf4,
            Create2 => 0xf5,
            StaticCall => 0xfa,
            Revert => 0xfd,
            SelfDestruct => 0xff,
            Invalid(b) => b,
        }
    }

    /// Number of immediate data bytes following this opcode in the bytecode
    /// (non-zero only for `PUSH1`–`PUSH32`).
    pub fn immediate_len(self) -> usize {
        match self {
            Opcode::Push(n) => n as usize,
            _ => 0,
        }
    }

    /// Stack items consumed.
    pub fn stack_in(self) -> usize {
        use Opcode::*;
        match self {
            Stop | Address | Origin | Caller | CallValue | CallDataSize | CodeSize | GasPrice
            | ReturnDataSize | Coinbase | Timestamp | Number | Difficulty | GasLimit | ChainId
            | SelfBalance | BaseFee | Pc | MSize | Gas | JumpDest | Push(_) | Invalid(_) => 0,
            IsZero | Not | Balance | CallDataLoad | ExtCodeSize | ExtCodeHash | BlockHash | Pop
            | MLoad | SLoad | Jump | SelfDestruct => 1,
            Add | Mul | Sub | Div | SDiv | Mod | SMod | Exp | SignExtend | Lt | Gt | SLt | SGt
            | Eq | And | Or | Xor | Byte | Shl | Shr | Sar | Keccak256 | MStore | MStore8
            | SStore | JumpI | Return | Revert => 2,
            AddMod | MulMod | CallDataCopy | CodeCopy | ReturnDataCopy | Create => 3,
            ExtCodeCopy | Create2 => 4,
            Log(n) => 2 + n as usize,
            Dup(n) => n as usize,
            Swap(n) => n as usize + 1,
            DelegateCall | StaticCall => 6,
            Call | CallCode => 7,
        }
    }

    /// Stack items produced.
    pub fn stack_out(self) -> usize {
        use Opcode::*;
        match self {
            Stop | Pop | MStore | MStore8 | SStore | Jump | JumpDest | Return | Revert
            | SelfDestruct | CallDataCopy | CodeCopy | ReturnDataCopy | ExtCodeCopy | Log(_)
            | JumpI | Invalid(_) => 0,
            Dup(n) => n as usize + 1,
            Swap(n) => n as usize + 1,
            _ => 1,
        }
    }

    /// True for instructions that end a basic block (no fallthrough).
    pub fn is_terminator(self) -> bool {
        matches!(
            self,
            Opcode::Stop
                | Opcode::Jump
                | Opcode::Return
                | Opcode::Revert
                | Opcode::SelfDestruct
                | Opcode::Invalid(_)
        )
    }

    /// The canonical mnemonic, e.g. `PUSH4`, `CALLDATALOAD`.
    pub fn mnemonic(self) -> String {
        use Opcode::*;
        match self {
            Push(n) => format!("PUSH{}", n),
            Dup(n) => format!("DUP{}", n),
            Swap(n) => format!("SWAP{}", n),
            Log(n) => format!("LOG{}", n),
            Invalid(b) => format!("INVALID(0x{:02x})", b),
            other => format!("{:?}", other).to_uppercase(),
        }
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_round_trip_all_values() {
        for b in 0u8..=255 {
            let op = Opcode::from_byte(b);
            assert_eq!(op.to_byte(), b, "round trip failed for 0x{:02x}", b);
        }
    }

    #[test]
    fn push_range() {
        assert_eq!(Opcode::from_byte(0x60), Opcode::Push(1));
        assert_eq!(Opcode::from_byte(0x7f), Opcode::Push(32));
        assert_eq!(Opcode::Push(4).immediate_len(), 4);
        assert_eq!(Opcode::Add.immediate_len(), 0);
    }

    #[test]
    fn dup_swap_arity() {
        assert_eq!(Opcode::Dup(1).stack_in(), 1);
        assert_eq!(Opcode::Dup(1).stack_out(), 2);
        assert_eq!(Opcode::Swap(3).stack_in(), 4);
        assert_eq!(Opcode::Swap(3).stack_out(), 4);
    }

    #[test]
    fn arity_known_cases() {
        assert_eq!(Opcode::Add.stack_in(), 2);
        assert_eq!(Opcode::Add.stack_out(), 1);
        assert_eq!(Opcode::CallDataCopy.stack_in(), 3);
        assert_eq!(Opcode::CallDataCopy.stack_out(), 0);
        assert_eq!(Opcode::Call.stack_in(), 7);
        assert_eq!(Opcode::StaticCall.stack_in(), 6);
        assert_eq!(Opcode::Log(4).stack_in(), 6);
    }

    #[test]
    fn classifications() {
        assert!(Opcode::Jump.is_terminator());
        assert!(!Opcode::JumpI.is_terminator());
    }

    #[test]
    fn mnemonics() {
        assert_eq!(Opcode::Push(4).mnemonic(), "PUSH4");
        assert_eq!(Opcode::CallDataLoad.mnemonic(), "CALLDATALOAD");
        assert_eq!(Opcode::JumpDest.mnemonic(), "JUMPDEST");
        assert_eq!(Opcode::Invalid(0xfe).mnemonic(), "INVALID(0xfe)");
    }
}
