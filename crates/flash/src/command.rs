//! Flash command set and ONFI-style cycle accounting.
//!
//! The conventional interface (Fig 6a) latches command and address bytes over
//! the DQ pins under CLE/ALE control; the packetized interface (Fig 6b) sends
//! the same command/address bytes inside a control packet. The per-command
//! byte counts here feed both timing models, plus the two commands pSSD
//! introduces: *read data transfer* (packetized page read-out, §IV-A) and
//! *page transfer* (`xfer`, the flash-to-flash copy of §V-D).

/// A command issued to a flash chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlashCommand {
    /// Page read into the page register (ONFI 00h/30h).
    ReadPage,
    /// Page program from the page register (ONFI 80h/10h).
    ProgramPage,
    /// Block erase (ONFI 60h/D0h).
    EraseBlock,
    /// pSSD "read data transfer": instructs the on-die controller to stream
    /// the page register contents back as data packets.
    ReadDataTransfer,
    /// pnSSD chip-to-chip page transfer (source side): stream the page
    /// register onto the v-channel toward another chip's V-page register.
    XferOut,
    /// pnSSD chip-to-chip page transfer (destination side): accept data from
    /// the v-channel into a V-page register.
    XferIn,
    /// Program a page from a V-page register (completes a spatial-GC copy).
    ProgramFromVPage,
}

impl FlashCommand {
    /// Command bytes latched with CLE asserted (conventional interface), or
    /// carried in a control packet's command field (packetized).
    pub fn command_bytes(self) -> u32 {
        match self {
            // Two-phase commands: 00h..30h, 80h..10h, 60h..D0h.
            FlashCommand::ReadPage | FlashCommand::ProgramPage | FlashCommand::EraseBlock => 2,
            FlashCommand::ReadDataTransfer => 1,
            FlashCommand::XferOut | FlashCommand::XferIn | FlashCommand::ProgramFromVPage => 1,
        }
    }

    /// Column-address bytes (position within the page).
    pub fn column_address_bytes(self) -> u32 {
        match self {
            FlashCommand::ReadPage | FlashCommand::ProgramPage => 2,
            FlashCommand::ReadDataTransfer => 2,
            FlashCommand::EraseBlock => 0,
            FlashCommand::XferOut | FlashCommand::XferIn | FlashCommand::ProgramFromVPage => 0,
        }
    }

    /// Row-address bytes (block/page within the die).
    pub fn row_address_bytes(self) -> u32 {
        match self {
            FlashCommand::ReadPage | FlashCommand::ProgramPage | FlashCommand::EraseBlock => 3,
            FlashCommand::ReadDataTransfer => 0,
            FlashCommand::XferOut | FlashCommand::XferIn | FlashCommand::ProgramFromVPage => 3,
        }
    }

    /// Total command + address bytes on the conventional DQ bus.
    pub fn total_cycle_bytes(self) -> u32 {
        self.command_bytes() + self.column_address_bytes() + self.row_address_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn onfi_read_is_seven_cycles() {
        // 2 command + 2 column + 3 row bytes, as in ONFI 4.2 / Fig 6(a).
        assert_eq!(FlashCommand::ReadPage.total_cycle_bytes(), 7);
    }

    #[test]
    fn erase_has_no_column_address() {
        let e = FlashCommand::EraseBlock;
        assert_eq!(e.column_address_bytes(), 0);
        assert_eq!(e.total_cycle_bytes(), 5);
    }
}
