//! The journal wire schema: frame tags, per-type codecs, and the typed
//! [`Frame`] the reader hands back.
//!
//! # Format (version 1)
//!
//! ```text
//! file   := magic "DJRN" · version u16 LE · frame*
//! frame  := tag u8 · len u32 LE · payload[len] · crc32 u32 LE
//! ```
//!
//! The CRC covers `tag · len · payload`. Body frames appear in capture order:
//! one `Header` first, then any interleaving of `Tick` / `Event` /
//! `LiquidationMeta` / `Volume`, one `End`, and an `Eof` trailer whose frame
//! count authenticates that the file is complete. A `LiquidationMeta` frame
//! always immediately follows the settlement `Event` frame it annotates.
//!
//! Enumerations ([`Token`], [`Platform`], [`AuctionPhase`]) are encoded as
//! their index in the declaration-order `ALL` arrays; `f64` config fields as
//! exact IEEE bit patterns; [`Wad`] as its raw `u128`. Wide integers
//! (`u64`/`u128`, including counts and `Wad`s) are LEB128 varints — journal
//! values are overwhelmingly small, so this roughly halves the file and its
//! write cost. Decoding is strict: unknown indexes, overlong varints and
//! leftover payload bytes are codec errors, so frame corruption can't
//! silently re-interpret.

use std::collections::BTreeMap;

use defi_chain::{AuctionPhase, BlockHeader, ChainEvent, LiquidationEvent, LoggedEvent};
use defi_core::position::{CollateralHolding, DebtHolding, Position};
use defi_oracle::PricePoint;
use defi_sim::{PlatformPopulation, SimConfig, VolumeSample};
use defi_types::{Address, BlockNumber, Platform, TimeMap, Token, TxHash, Wad};

use crate::codec::{CodecError, Decoder, Encoder};

/// File magic: the first four bytes of every journal.
pub const MAGIC: [u8; 4] = *b"DJRN";

/// Format version this build writes and the highest it reads.
pub const VERSION: u16 = 1;

/// Frame tags (wire values — append-only, never renumber).
pub const TAG_HEADER: u8 = 1;
/// Tick frame tag.
pub const TAG_TICK: u8 = 2;
/// Chain-event frame tag.
pub const TAG_EVENT: u8 = 3;
/// Liquidation-metadata frame tag.
pub const TAG_LIQUIDATION_META: u8 = 4;
/// Volume-sample frame tag.
pub const TAG_VOLUME: u8 = 5;
/// End-state frame tag.
pub const TAG_END: u8 = 6;
/// End-of-journal trailer tag.
pub const TAG_EOF: u8 = 7;

/// The run context captured at `on_run_start` — everything an observer
/// receives in [`defi_sim::RunStart`], by value.
#[derive(Debug, Clone)]
pub struct HeaderFrame {
    /// The full simulation configuration (seed, scenario, populations …).
    pub config: SimConfig,
    /// Block-to-wall-clock mapping of the study window.
    pub time_map: TimeMap,
    /// Liquidation spread per (platform, collateral) market.
    pub market_spreads: BTreeMap<(Platform, Token), Wad>,
}

/// One `on_tick_start` observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TickFrame {
    /// First block of the tick.
    pub block: BlockNumber,
    /// 0-based tick counter.
    pub tick_index: u64,
}

/// The liquidation-side metadata of an `on_liquidation` observation (the
/// settlement event itself is the preceding `Event` frame).
#[derive(Debug, Clone, Copy)]
pub struct LiquidationMetaFrame {
    /// ETH/USD price at the settlement block.
    pub eth_price: Wad,
    /// Borrower health factor just before settlement, when observable.
    pub health_factor_before: Option<Wad>,
}

/// The run's end state: everything `on_run_end` needs beyond the header and
/// the event stream.
#[derive(Debug, Clone)]
pub struct EndFrame {
    /// Block of the final position snapshot.
    pub snapshot_block: BlockNumber,
    /// Final positions per platform.
    pub final_positions: BTreeMap<Platform, Vec<Position>>,
    /// Every sealed block header (gas series, congestion).
    pub headers: Vec<BlockHeader>,
    /// Full market-oracle write history per token, in write order.
    pub oracle_history: Vec<(Token, Vec<PricePoint>)>,
}

/// One decoded journal frame.
#[derive(Debug, Clone)]
pub enum Frame {
    /// Run context (always the first frame).
    Header(Box<HeaderFrame>),
    /// A tick boundary.
    Tick(TickFrame),
    /// A logged chain event.
    Event(LoggedEvent),
    /// Metadata for the immediately preceding settlement event.
    LiquidationMeta(LiquidationMetaFrame),
    /// A collateral-volume sample.
    Volume(VolumeSample),
    /// End state (always the last body frame).
    End(Box<EndFrame>),
    /// Trailer: number of body frames before it.
    Eof {
        /// Body frames written before the trailer.
        frame_count: u64,
    },
}

// --- primitive helpers -----------------------------------------------------

fn put_token(enc: &mut Encoder, token: Token) {
    // Token::ALL enumerates every variant in declaration order, so the
    // position is total; the fallback index is unreachable.
    let idx = Token::ALL.iter().position(|t| *t == token).unwrap_or(0xFF);
    enc.put_u8(idx as u8);
}

fn get_token(dec: &mut Decoder<'_>) -> Result<Token, CodecError> {
    let idx = usize::from(dec.u8()?);
    Token::ALL
        .get(idx)
        .copied()
        .ok_or(CodecError::Invalid("token index"))
}

fn put_platform(enc: &mut Encoder, platform: Platform) {
    let idx = Platform::ALL
        .iter()
        .position(|p| *p == platform)
        .unwrap_or(0xFF);
    enc.put_u8(idx as u8);
}

fn get_platform(dec: &mut Decoder<'_>) -> Result<Platform, CodecError> {
    let idx = usize::from(dec.u8()?);
    Platform::ALL
        .get(idx)
        .copied()
        .ok_or(CodecError::Invalid("platform index"))
}

fn put_wad(enc: &mut Encoder, wad: Wad) {
    enc.put_u128(wad.raw());
}

fn get_wad(dec: &mut Decoder<'_>) -> Result<Wad, CodecError> {
    Ok(Wad::from_raw(dec.u128()?))
}

fn put_opt_wad(enc: &mut Encoder, wad: Option<Wad>) {
    match wad {
        Some(w) => {
            enc.put_bool(true);
            put_wad(enc, w);
        }
        None => enc.put_bool(false),
    }
}

fn get_opt_wad(dec: &mut Decoder<'_>) -> Result<Option<Wad>, CodecError> {
    if dec.bool()? {
        Ok(Some(get_wad(dec)?))
    } else {
        Ok(None)
    }
}

fn put_address(enc: &mut Encoder, address: Address) {
    enc.put_bytes(&address.0);
}

fn get_address(dec: &mut Decoder<'_>) -> Result<Address, CodecError> {
    let bytes = dec.take(20)?;
    let arr: [u8; 20] = bytes.try_into().map_err(|_| CodecError::UnexpectedEnd)?;
    Ok(Address(arr))
}

fn put_tx_hash(enc: &mut Encoder, hash: TxHash) {
    enc.put_bytes(&hash.0);
}

fn get_tx_hash(dec: &mut Decoder<'_>) -> Result<TxHash, CodecError> {
    let bytes = dec.take(32)?;
    let arr: [u8; 32] = bytes.try_into().map_err(|_| CodecError::UnexpectedEnd)?;
    Ok(TxHash(arr))
}

fn put_phase(enc: &mut Encoder, phase: AuctionPhase) {
    enc.put_u8(match phase {
        AuctionPhase::Tend => 0,
        AuctionPhase::Dent => 1,
    });
}

fn get_phase(dec: &mut Decoder<'_>) -> Result<AuctionPhase, CodecError> {
    match dec.u8()? {
        0 => Ok(AuctionPhase::Tend),
        1 => Ok(AuctionPhase::Dent),
        _ => Err(CodecError::Invalid("auction phase")),
    }
}

// --- chain events ----------------------------------------------------------

fn put_event(enc: &mut Encoder, event: &ChainEvent) {
    match event {
        ChainEvent::Liquidation(liq) => {
            enc.put_u8(0);
            put_platform(enc, liq.platform);
            put_address(enc, liq.liquidator);
            put_address(enc, liq.borrower);
            put_token(enc, liq.debt_token);
            put_wad(enc, liq.debt_repaid);
            put_wad(enc, liq.debt_repaid_usd);
            put_token(enc, liq.collateral_token);
            put_wad(enc, liq.collateral_seized);
            put_wad(enc, liq.collateral_seized_usd);
            enc.put_bool(liq.used_flash_loan);
        }
        ChainEvent::AuctionStarted {
            auction_id,
            borrower,
            collateral_token,
            collateral_amount,
            debt,
        } => {
            enc.put_u8(1);
            enc.put_u64(*auction_id);
            put_address(enc, *borrower);
            put_token(enc, *collateral_token);
            put_wad(enc, *collateral_amount);
            put_wad(enc, *debt);
        }
        ChainEvent::AuctionBid {
            auction_id,
            bidder,
            phase,
            debt_bid,
            collateral_bid,
        } => {
            enc.put_u8(2);
            enc.put_u64(*auction_id);
            put_address(enc, *bidder);
            put_phase(enc, *phase);
            put_wad(enc, *debt_bid);
            put_wad(enc, *collateral_bid);
        }
        ChainEvent::AuctionFinalized {
            auction_id,
            winner,
            debt_repaid,
            debt_repaid_usd,
            collateral_token,
            collateral_received,
            collateral_received_usd,
            borrower,
            started_at,
            last_bid_at,
            tend_bids,
            dent_bids,
            final_phase,
        } => {
            enc.put_u8(3);
            enc.put_u64(*auction_id);
            put_address(enc, *winner);
            put_wad(enc, *debt_repaid);
            put_wad(enc, *debt_repaid_usd);
            put_token(enc, *collateral_token);
            put_wad(enc, *collateral_received);
            put_wad(enc, *collateral_received_usd);
            put_address(enc, *borrower);
            enc.put_u64(*started_at);
            enc.put_u64(*last_bid_at);
            enc.put_u32(*tend_bids);
            enc.put_u32(*dent_bids);
            put_phase(enc, *final_phase);
        }
        ChainEvent::FlashLoan {
            pool,
            borrower,
            token,
            amount,
            amount_usd,
            fee,
        } => {
            enc.put_u8(4);
            put_platform(enc, *pool);
            put_address(enc, *borrower);
            put_token(enc, *token);
            put_wad(enc, *amount);
            put_wad(enc, *amount_usd);
            put_wad(enc, *fee);
        }
        ChainEvent::OracleUpdate { token, price } => {
            enc.put_u8(5);
            put_token(enc, *token);
            put_wad(enc, *price);
        }
        ChainEvent::Borrow {
            platform,
            borrower,
            token,
            amount,
        } => {
            enc.put_u8(6);
            put_platform(enc, *platform);
            put_address(enc, *borrower);
            put_token(enc, *token);
            put_wad(enc, *amount);
        }
        ChainEvent::Deposit {
            platform,
            account,
            token,
            amount,
        } => {
            enc.put_u8(7);
            put_platform(enc, *platform);
            put_address(enc, *account);
            put_token(enc, *token);
            put_wad(enc, *amount);
        }
        ChainEvent::Repay {
            platform,
            borrower,
            token,
            amount,
        } => {
            enc.put_u8(8);
            put_platform(enc, *platform);
            put_address(enc, *borrower);
            put_token(enc, *token);
            put_wad(enc, *amount);
        }
    }
}

fn get_event(dec: &mut Decoder<'_>) -> Result<ChainEvent, CodecError> {
    match dec.u8()? {
        0 => Ok(ChainEvent::Liquidation(LiquidationEvent {
            platform: get_platform(dec)?,
            liquidator: get_address(dec)?,
            borrower: get_address(dec)?,
            debt_token: get_token(dec)?,
            debt_repaid: get_wad(dec)?,
            debt_repaid_usd: get_wad(dec)?,
            collateral_token: get_token(dec)?,
            collateral_seized: get_wad(dec)?,
            collateral_seized_usd: get_wad(dec)?,
            used_flash_loan: dec.bool()?,
        })),
        1 => Ok(ChainEvent::AuctionStarted {
            auction_id: dec.u64()?,
            borrower: get_address(dec)?,
            collateral_token: get_token(dec)?,
            collateral_amount: get_wad(dec)?,
            debt: get_wad(dec)?,
        }),
        2 => Ok(ChainEvent::AuctionBid {
            auction_id: dec.u64()?,
            bidder: get_address(dec)?,
            phase: get_phase(dec)?,
            debt_bid: get_wad(dec)?,
            collateral_bid: get_wad(dec)?,
        }),
        3 => Ok(ChainEvent::AuctionFinalized {
            auction_id: dec.u64()?,
            winner: get_address(dec)?,
            debt_repaid: get_wad(dec)?,
            debt_repaid_usd: get_wad(dec)?,
            collateral_token: get_token(dec)?,
            collateral_received: get_wad(dec)?,
            collateral_received_usd: get_wad(dec)?,
            borrower: get_address(dec)?,
            started_at: dec.u64()?,
            last_bid_at: dec.u64()?,
            tend_bids: dec.u32()?,
            dent_bids: dec.u32()?,
            final_phase: get_phase(dec)?,
        }),
        4 => Ok(ChainEvent::FlashLoan {
            pool: get_platform(dec)?,
            borrower: get_address(dec)?,
            token: get_token(dec)?,
            amount: get_wad(dec)?,
            amount_usd: get_wad(dec)?,
            fee: get_wad(dec)?,
        }),
        5 => Ok(ChainEvent::OracleUpdate {
            token: get_token(dec)?,
            price: get_wad(dec)?,
        }),
        6 => Ok(ChainEvent::Borrow {
            platform: get_platform(dec)?,
            borrower: get_address(dec)?,
            token: get_token(dec)?,
            amount: get_wad(dec)?,
        }),
        7 => Ok(ChainEvent::Deposit {
            platform: get_platform(dec)?,
            account: get_address(dec)?,
            token: get_token(dec)?,
            amount: get_wad(dec)?,
        }),
        8 => Ok(ChainEvent::Repay {
            platform: get_platform(dec)?,
            borrower: get_address(dec)?,
            token: get_token(dec)?,
            amount: get_wad(dec)?,
        }),
        _ => Err(CodecError::Invalid("chain-event tag")),
    }
}

pub(crate) fn put_logged_event(enc: &mut Encoder, logged: &LoggedEvent) {
    enc.put_u64(logged.block);
    enc.put_u32(logged.tx_index);
    put_tx_hash(enc, logged.tx_hash);
    put_address(enc, logged.sender);
    enc.put_u64(logged.gas_price);
    enc.put_u64(logged.gas_used);
    put_event(enc, &logged.event);
}

fn get_logged_event(dec: &mut Decoder<'_>) -> Result<LoggedEvent, CodecError> {
    Ok(LoggedEvent {
        block: dec.u64()?,
        tx_index: dec.u32()?,
        tx_hash: get_tx_hash(dec)?,
        sender: get_address(dec)?,
        gas_price: dec.u64()?,
        gas_used: dec.u64()?,
        event: get_event(dec)?,
    })
}

// --- config / context ------------------------------------------------------

fn put_population(enc: &mut Encoder, pop: &PlatformPopulation) {
    put_platform(enc, pop.platform);
    enc.put_f64(pop.borrower_arrival_rate);
    enc.put_len(pop.max_borrowers);
    enc.put_f64(pop.median_collateral_usd);
    enc.put_f64(pop.collateral_sigma);
    enc.put_f64(pop.target_collateralization);
    enc.put_f64(pop.active_manager_share);
    enc.put_f64(pop.multi_collateral_share);
    enc.put_f64(pop.stablecoin_borrower_share);
    enc.put_len(pop.liquidator_count);
}

fn get_population(dec: &mut Decoder<'_>) -> Result<PlatformPopulation, CodecError> {
    Ok(PlatformPopulation {
        platform: get_platform(dec)?,
        borrower_arrival_rate: dec.f64()?,
        max_borrowers: get_usize(dec)?,
        median_collateral_usd: dec.f64()?,
        collateral_sigma: dec.f64()?,
        target_collateralization: dec.f64()?,
        active_manager_share: dec.f64()?,
        multi_collateral_share: dec.f64()?,
        stablecoin_borrower_share: dec.f64()?,
        liquidator_count: get_usize(dec)?,
    })
}

/// `usize` encoded like a length but without the remaining-bytes bound
/// (counts such as `max_borrowers` are data, not buffer sizes).
fn get_usize(dec: &mut Decoder<'_>) -> Result<usize, CodecError> {
    usize::try_from(dec.u64()?).map_err(|_| CodecError::Invalid("count"))
}

fn put_config(enc: &mut Encoder, config: &SimConfig) {
    enc.put_u64(config.seed);
    enc.put_u64(config.start_block);
    enc.put_u64(config.end_block);
    enc.put_u64(config.tick_blocks);
    enc.put_len(config.populations.len());
    for pop in &config.populations {
        put_population(enc, pop);
    }
    enc.put_f64(config.flash_loan_probability);
    enc.put_f64(config.stale_bot_share);
    enc.put_u64(config.maker_param_change_block);
    enc.put_u64(config.insurance_writeoff_interval);
    enc.put_u64(config.volume_sample_interval);
    enc.put_u64(config.liquidation_gas);
    enc.put_u64(config.auction_gas);
    enc.put_u64(config.user_op_gas);
    match &config.scenario {
        Some(name) => {
            enc.put_bool(true);
            enc.put_str(name);
        }
        None => enc.put_bool(false),
    }
    enc.put_bool(config.scenario_applied);
    enc.put_len(config.extra_congestion_episodes.len());
    for episode in &config.extra_congestion_episodes {
        enc.put_u64(episode.from);
        enc.put_u64(episode.to);
        enc.put_f64(episode.multiplier);
    }
}

fn get_config(dec: &mut Decoder<'_>) -> Result<SimConfig, CodecError> {
    let seed = dec.u64()?;
    let start_block = dec.u64()?;
    let end_block = dec.u64()?;
    let tick_blocks = dec.u64()?;
    let pop_count = get_usize(dec)?;
    let mut populations = Vec::new();
    for _ in 0..pop_count {
        populations.push(get_population(dec)?);
    }
    let flash_loan_probability = dec.f64()?;
    let stale_bot_share = dec.f64()?;
    let maker_param_change_block = dec.u64()?;
    let insurance_writeoff_interval = dec.u64()?;
    let volume_sample_interval = dec.u64()?;
    let liquidation_gas = dec.u64()?;
    let auction_gas = dec.u64()?;
    let user_op_gas = dec.u64()?;
    let scenario = if dec.bool()? { Some(dec.str()?) } else { None };
    let scenario_applied = dec.bool()?;
    let episode_count = get_usize(dec)?;
    let mut extra_congestion_episodes = Vec::new();
    for _ in 0..episode_count {
        extra_congestion_episodes.push(defi_chain::CongestionEpisode {
            from: dec.u64()?,
            to: dec.u64()?,
            multiplier: dec.f64()?,
        });
    }
    Ok(SimConfig {
        seed,
        start_block,
        end_block,
        tick_blocks,
        populations,
        flash_loan_probability,
        stale_bot_share,
        maker_param_change_block,
        insurance_writeoff_interval,
        volume_sample_interval,
        liquidation_gas,
        auction_gas,
        user_op_gas,
        scenario,
        scenario_applied,
        extra_congestion_episodes,
        // Deliberately not journaled: journals carry the *observed*
        // event stream, and behavioural agent state is reconstructed from
        // the config on a live re-run, not replayed (see CONTRACTS.md).
        // Journals written before the layer existed replay unchanged.
        behavior: defi_sim::BehaviorConfig::default(),
    })
}

// --- end state -------------------------------------------------------------

fn put_position(enc: &mut Encoder, position: &Position) {
    put_address(enc, position.owner);
    match position.platform {
        Some(platform) => {
            enc.put_bool(true);
            put_platform(enc, platform);
        }
        None => enc.put_bool(false),
    }
    enc.put_len(position.collateral.len());
    for holding in &position.collateral {
        put_token(enc, holding.token);
        put_wad(enc, holding.amount);
        put_wad(enc, holding.value_usd);
        put_wad(enc, holding.liquidation_threshold);
        put_wad(enc, holding.liquidation_spread);
    }
    enc.put_len(position.debt.len());
    for holding in &position.debt {
        put_token(enc, holding.token);
        put_wad(enc, holding.amount);
        put_wad(enc, holding.value_usd);
    }
}

fn get_position(dec: &mut Decoder<'_>) -> Result<Position, CodecError> {
    let owner = get_address(dec)?;
    let platform = if dec.bool()? {
        Some(get_platform(dec)?)
    } else {
        None
    };
    let collateral_count = get_usize(dec)?;
    let mut collateral = Vec::new();
    for _ in 0..collateral_count {
        collateral.push(CollateralHolding {
            token: get_token(dec)?,
            amount: get_wad(dec)?,
            value_usd: get_wad(dec)?,
            liquidation_threshold: get_wad(dec)?,
            liquidation_spread: get_wad(dec)?,
        });
    }
    let debt_count = get_usize(dec)?;
    let mut debt = Vec::new();
    for _ in 0..debt_count {
        debt.push(DebtHolding {
            token: get_token(dec)?,
            amount: get_wad(dec)?,
            value_usd: get_wad(dec)?,
        });
    }
    Ok(Position {
        owner,
        platform,
        collateral,
        debt,
    })
}

fn put_header_frame(enc: &mut Encoder, header: &HeaderFrame) {
    put_config(enc, &header.config);
    enc.put_u64(header.time_map.genesis_block);
    enc.put_u64(header.time_map.genesis_timestamp);
    enc.put_f64(header.time_map.seconds_per_block);
    enc.put_len(header.market_spreads.len());
    for ((platform, token), spread) in &header.market_spreads {
        put_platform(enc, *platform);
        put_token(enc, *token);
        put_wad(enc, *spread);
    }
}

fn get_header_frame(dec: &mut Decoder<'_>) -> Result<HeaderFrame, CodecError> {
    let config = get_config(dec)?;
    let time_map = TimeMap {
        genesis_block: dec.u64()?,
        genesis_timestamp: dec.u64()?,
        seconds_per_block: dec.f64()?,
    };
    let spread_count = get_usize(dec)?;
    let mut market_spreads = BTreeMap::new();
    for _ in 0..spread_count {
        let platform = get_platform(dec)?;
        let token = get_token(dec)?;
        market_spreads.insert((platform, token), get_wad(dec)?);
    }
    Ok(HeaderFrame {
        config,
        time_map,
        market_spreads,
    })
}

fn put_end_frame(enc: &mut Encoder, end: &EndFrame) {
    put_end_frame_parts(
        enc,
        end.snapshot_block,
        &end.final_positions,
        &end.headers,
        end.oracle_history
            .iter()
            .map(|(token, points)| (*token, points.as_slice())),
    );
}

/// Encode the end-frame payload straight from borrowed run state — the
/// writer's `on_run_end` uses this to journal the final books, headers and
/// oracle history without first deep-cloning them into an [`EndFrame`].
pub(crate) fn put_end_frame_parts<'a, I>(
    enc: &mut Encoder,
    snapshot_block: u64,
    final_positions: &BTreeMap<Platform, Vec<Position>>,
    headers: &[BlockHeader],
    oracle_history: I,
) where
    I: ExactSizeIterator<Item = (Token, &'a [PricePoint])>,
{
    enc.put_u64(snapshot_block);
    enc.put_len(final_positions.len());
    for (platform, positions) in final_positions {
        put_platform(enc, *platform);
        enc.put_len(positions.len());
        for position in positions {
            put_position(enc, position);
        }
    }
    enc.put_len(headers.len());
    for header in headers {
        enc.put_u64(header.number);
        enc.put_u64(header.timestamp);
        enc.put_u64(header.gas_used);
        enc.put_u64(header.gas_limit);
        enc.put_u64(header.median_gas_price);
        enc.put_u32(header.tx_count);
        enc.put_u32(header.mempool_backlog);
    }
    enc.put_len(oracle_history.len());
    for (token, points) in oracle_history {
        put_token(enc, token);
        enc.put_len(points.len());
        for point in points {
            enc.put_u64(point.block);
            put_wad(enc, point.price);
        }
    }
}

fn get_end_frame(dec: &mut Decoder<'_>) -> Result<EndFrame, CodecError> {
    let snapshot_block = dec.u64()?;
    let platform_count = get_usize(dec)?;
    let mut final_positions = BTreeMap::new();
    for _ in 0..platform_count {
        let platform = get_platform(dec)?;
        let position_count = get_usize(dec)?;
        let mut positions = Vec::new();
        for _ in 0..position_count {
            positions.push(get_position(dec)?);
        }
        final_positions.insert(platform, positions);
    }
    let header_count = get_usize(dec)?;
    let mut headers = Vec::new();
    for _ in 0..header_count {
        headers.push(BlockHeader {
            number: dec.u64()?,
            timestamp: dec.u64()?,
            gas_used: dec.u64()?,
            gas_limit: dec.u64()?,
            median_gas_price: dec.u64()?,
            tx_count: dec.u32()?,
            mempool_backlog: dec.u32()?,
        });
    }
    let token_count = get_usize(dec)?;
    let mut oracle_history = Vec::new();
    for _ in 0..token_count {
        let token = get_token(dec)?;
        let point_count = get_usize(dec)?;
        let mut points = Vec::new();
        for _ in 0..point_count {
            points.push(PricePoint {
                block: dec.u64()?,
                price: get_wad(dec)?,
            });
        }
        oracle_history.push((token, points));
    }
    Ok(EndFrame {
        snapshot_block,
        final_positions,
        headers,
        oracle_history,
    })
}

// --- frame-level API -------------------------------------------------------

/// Encode one frame's payload (without the tag/len/crc envelope — the writer
/// adds those) and return `(tag, payload)`.
pub fn encode_frame(frame: &Frame) -> (u8, Vec<u8>) {
    encode_frame_into(frame, Vec::new())
}

/// Like [`encode_frame`], but reuses `buf`'s capacity for the payload — the
/// writer recycles one scratch buffer across the run's thousands of frames.
pub fn encode_frame_into(frame: &Frame, buf: Vec<u8>) -> (u8, Vec<u8>) {
    let mut enc = Encoder::with_buffer(buf);
    let tag = match frame {
        Frame::Header(header) => {
            put_header_frame(&mut enc, header);
            TAG_HEADER
        }
        Frame::Tick(tick) => {
            enc.put_u64(tick.block);
            enc.put_u64(tick.tick_index);
            TAG_TICK
        }
        Frame::Event(logged) => {
            put_logged_event(&mut enc, logged);
            TAG_EVENT
        }
        Frame::LiquidationMeta(meta) => {
            put_wad(&mut enc, meta.eth_price);
            put_opt_wad(&mut enc, meta.health_factor_before);
            TAG_LIQUIDATION_META
        }
        Frame::Volume(sample) => {
            enc.put_u64(sample.block);
            put_platform(&mut enc, sample.platform);
            put_wad(&mut enc, sample.total_collateral_usd);
            put_wad(&mut enc, sample.dai_eth_collateral_usd);
            enc.put_u32(sample.open_positions);
            TAG_VOLUME
        }
        Frame::End(end) => {
            put_end_frame(&mut enc, end);
            TAG_END
        }
        Frame::Eof { frame_count } => {
            enc.put_u64(*frame_count);
            TAG_EOF
        }
    };
    (tag, enc.into_bytes())
}

/// Decode one frame from its tag and payload. Strict: every payload byte
/// must be consumed, so a mis-framed payload can't half-decode.
pub fn decode_frame(tag: u8, payload: &[u8]) -> Result<Frame, CodecError> {
    let mut dec = Decoder::new(payload);
    let frame = match tag {
        TAG_HEADER => Frame::Header(Box::new(get_header_frame(&mut dec)?)),
        TAG_TICK => Frame::Tick(TickFrame {
            block: dec.u64()?,
            tick_index: dec.u64()?,
        }),
        TAG_EVENT => Frame::Event(get_logged_event(&mut dec)?),
        TAG_LIQUIDATION_META => Frame::LiquidationMeta(LiquidationMetaFrame {
            eth_price: get_wad(&mut dec)?,
            health_factor_before: get_opt_wad(&mut dec)?,
        }),
        TAG_VOLUME => Frame::Volume(VolumeSample {
            block: dec.u64()?,
            platform: get_platform(&mut dec)?,
            total_collateral_usd: get_wad(&mut dec)?,
            dai_eth_collateral_usd: get_wad(&mut dec)?,
            open_positions: dec.u32()?,
        }),
        TAG_END => Frame::End(Box::new(get_end_frame(&mut dec)?)),
        TAG_EOF => Frame::Eof {
            frame_count: dec.u64()?,
        },
        _ => return Err(CodecError::Invalid("frame tag")),
    };
    if !dec.is_exhausted() {
        return Err(CodecError::Invalid("trailing payload bytes"));
    }
    Ok(frame)
}
